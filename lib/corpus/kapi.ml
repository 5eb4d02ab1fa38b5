(** The kernel-internal API surface of the synthetic corpus.

    These are the helper functions drivers call but do not define; the
    virtual kernel implements them as builtins, and the analyses must not
    report them as "unknown" functions to chase. *)

(** Is [name] one of these helpers? A string [match], which compiles to
    word compares rather than a walk of polymorphic compares. *)
let is_builtin = function
  (* user memory *)
  | "copy_from_user" | "copy_to_user" | "get_user" | "put_user" | "memdup_user"
  | "strncpy_from_user"
  (* allocation *)
  | "kmalloc" | "kzalloc" | "kcalloc" | "kvmalloc" | "vmalloc" | "vzalloc" | "kfree"
  | "vfree" | "kvfree"
  (* locking and lists *)
  | "mutex_init" | "mutex_lock" | "mutex_unlock" | "spin_lock" | "spin_unlock" | "list_add"
  | "list_add_tail" | "list_del" | "INIT_LIST_HEAD"
  (* checks *)
  | "WARN_ON" | "BUG_ON" | "WARN_ON_ONCE"
  (* waiting *)
  | "init_completion" | "complete" | "wait_for_completion_killable" | "schedule_timeout"
  | "msleep"
  (* misc *)
  | "capable" | "printk" | "pr_info" | "pr_err" | "pr_warn" | "memset" | "memcpy" | "memcmp"
  | "strcmp" | "strncmp" | "strlen" | "strncpy" | "strscpy" | "snprintf" | "min" | "max"
  | "min_t" | "max_t" | "array_index_nospec" | "noop_llseek" | "nonseekable_open"
  | "stream_open" | "anon_inode_getfd"
  (* ioctl encoding *)
  | "_IO" | "_IOR" | "_IOW" | "_IOWR" | "_IOC" | "_IOC_NR" | "_IOC_TYPE" | "_IOC_SIZE"
  | "_IOC_DIR"
  (* registration (evaluated at boot, no-ops at runtime) *)
  | "misc_register" | "misc_deregister" | "register_chrdev" | "unregister_chrdev"
  | "cdev_init" | "cdev_add" | "device_create" | "class_create" | "sock_register"
  | "proto_register" | "snd_register_device" ->
      true
  | _ -> false

(** Capability bits for the corpus' [capable] checks. *)
let cap_sys_admin = 21
