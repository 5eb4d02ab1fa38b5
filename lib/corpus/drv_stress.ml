(** Executor stress driver ([/dev/stress0]) — not part of the paper
    population.

    This module exists for the Jit-vs-Interp executor differential: it
    leans on exactly the executor machinery the {!Vkernel.Jit} reimplements
    (top-level labels driven by [goto] loops, a six-parameter helper
    called with too few and too many arguments, a parameter shadowing a
    global, a [goto] that jumps over a local's first write, implicit
    declarations, and the high-arity builtins). It is registered only in
    {!Registry.extras}, so population counts, campaign schedules and
    every seeded RNG stream stay byte-identical to a tree without it. *)

let source =
  {|
#define STRESS_MAGIC 0xb7
#define STRESS_MAX_ROUNDS 64

#define STRESS_SPIN _IOW(STRESS_MAGIC, 1, struct stress_spin_req)
#define STRESS_MIX _IOWR(STRESS_MAGIC, 2, struct stress_mix_req)
#define STRESS_NAME _IOW(STRESS_MAGIC, 3, struct stress_name_req)

struct stress_spin_req {
  u32 rounds;
  u32 step;
};

struct stress_mix_req {
  u32 a;
  u32 b;
  u32 c;
  u32 rsv[4];
};

struct stress_name_req {
  char name[16];
  u32 flags;
};

static int _stress_opens;
static long _stress_acc;   /* shadowed by a parameter in stress_shadow */

/* Six parameters on purpose: call sites below pass 2 and 9 arguments,
 * so missing parameters must read as zero and extras must still be
 * evaluated (for their side effects) and dropped. */
static long stress_mix6(long a, long b, long c, long d, long e, long f)
{
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}

/* The parameter shadows the global _stress_acc for the whole body. */
static long stress_shadow(long _stress_acc)
{
  _stress_acc = _stress_acc + 100;
  return _stress_acc;
}

/* goto loop over top-level labels: the label map must be built from
 * the same statement walk in both engines. */
static long stress_spin(long rounds, long step)
{
  long acc;
  long i;
  acc = 0;
  i = 0;
again:
  if (i >= rounds)
    goto done;
  acc = acc + step;
  i = i + 1;
  goto again;
done:
  return acc;
}

/* The goto jumps over tmp's first write: tmp must read as its declared
 * zero afterwards, in both engines. */
static long stress_skip_write(long flag)
{
  long tmp;
  if (flag)
    goto after;
  tmp = 40;
after:
  return tmp + 2;
}

/* counter is never declared: implicit locals resolve the same way in
 * the tree walker and in the slot allocator. */
static long stress_implicit(long x)
{
  counter = x * 2;
  counter = counter + stress_shadow(counter);
  return counter;
}

static int stress_open(struct inode *inode, struct file *fp)
{
  void *buf;
  buf = kzalloc(64, GFP_KERNEL);
  if (!buf)
    return -ENOMEM;
  fp->private_data = buf;
  _stress_opens = _stress_opens + 1;
  return 0;
}

static int stress_release(struct inode *inode, struct file *fp)
{
  if (fp->private_data)
    kfree(fp->private_data);
  fp->private_data = 0;
  _stress_opens = _stress_opens - 1;
  return 0;
}

static long stress_ioctl(struct file *fp, unsigned int cmd, unsigned long arg)
{
  struct stress_spin_req spin;
  struct stress_mix_req mix;
  struct stress_name_req nreq;
  char label[16];
  long r;
  switch (cmd) {
  case STRESS_SPIN:
    if (copy_from_user(&spin, (void *)arg, sizeof(struct stress_spin_req)))
      return -EFAULT;
    if (spin.rounds > STRESS_MAX_ROUNDS)
      return -EINVAL;
    r = stress_spin(spin.rounds, min_t(long, spin.step, 7));
    _stress_acc = _stress_acc + r;
    return 0;
  case STRESS_MIX:
    if (copy_from_user(&mix, (void *)arg, sizeof(struct stress_mix_req)))
      return -EFAULT;
    /* two arguments: c..f read as zero */
    r = stress_mix6(mix.a, mix.b);
    /* nine arguments: the last three evaluate and drop */
    r = r + stress_mix6(mix.a, mix.b, mix.c, 1, 2, 3, stress_skip_write(mix.a),
                        stress_implicit(mix.b), max_t(long, mix.c, 9));
    if (copy_to_user((void *)arg, &mix, sizeof(struct stress_mix_req)))
      return -EFAULT;
    _stress_acc = _stress_acc + r;
    return 0;
  case STRESS_NAME:
    if (copy_from_user(&nreq, (void *)arg, sizeof(struct stress_name_req)))
      return -EFAULT;
    memset(label, 0, 16);
    snprintf(label, 16, "s-%s", nreq.name);
    if (strncmp(nreq.name, "probe", 5) == 0)
      return -EPERM;
    if (nreq.flags > 4)
      return -EINVAL;
    return 0;
  default:
    return -ENOTTY;
  }
}

static const struct file_operations stress_fops = {
  .open = stress_open,
  .release = stress_release,
  .unlocked_ioctl = stress_ioctl,
  .owner = THIS_MODULE,
};

static struct miscdevice stress_misc = {
  .minor = 200,
  .name = "stress0",
  .fops = &stress_fops,
};

static int stress_init(void)
{
  misc_register(&stress_misc);
  return 0;
}
|}

let commands =
  [
    ("STRESS_SPIN", Some "stress_spin_req", Syzlang.Ast.In);
    ("STRESS_MIX", Some "stress_mix_req", Syzlang.Ast.Inout);
    ("STRESS_NAME", Some "stress_name_req", Syzlang.Ast.In);
  ]

let entry : Types.entry =
  Types.driver_entry ~name:"stress" ~display_name:"stress0" ~source
    ~gt:
      {
        Types.gt_paths = [ "/dev/stress0" ];
        gt_fops = "stress_fops";
        gt_socket = None;
        gt_ioctls =
          List.map
            (fun (name, ty, dir) -> { Types.gc_name = name; gc_arg_type = ty; gc_dir = dir })
            commands;
        gt_setsockopts = [];
        gt_syscalls = [ "openat"; "ioctl"; "close" ];
      }
    ()
