(** Shared kernel headers of the synthetic corpus.

    Every module source is indexed together with this header, which plays
    the role of [include/linux/*.h]: the registration structs
    ([file_operations], [miscdevice], [proto_ops]), errno constants, and
    the handful of helpers the drivers rely on. *)

let kernel_h =
  {|
/* errno */
#define EPERM 1
#define ENOENT 2
#define ESRCH 3
#define EINTR 4
#define EIO 5
#define ENXIO 6
#define E2BIG 7
#define ENOEXEC 8
#define EBADF 9
#define EEXIST 17
#define ENOIOCTLCMD 515
#define EAGAIN 11
#define ENOMEM 12
#define EACCES 13
#define EFAULT 14
#define EBUSY 16
#define ENODEV 19
#define EINVAL 22
#define ENOTTY 25
#define ENOSPC 28
#define EPIPE 32
#define ERANGE 34
#define ENOSYS 38
#define ENODATA 61
#define ENONET 64
#define EBADFD 77
#define EUSERS 87
#define EPROTO 71
#define EOVERFLOW 75
#define EDESTADDRREQ 89
#define EMSGSIZE 90
#define ENOPROTOOPT 92
#define EPROTONOSUPPORT 93
#define EOPNOTSUPP 95
#define EAFNOSUPPORT 97
#define EADDRINUSE 98
#define EADDRNOTAVAIL 99
#define ENOBUFS 105
#define EISCONN 106
#define ENOTCONN 107
#define ETIMEDOUT 110
#define EALREADY 114
#define EINPROGRESS 115

#define THIS_MODULE 0
#define NULL 0
#define GFP_KERNEL 0
#define GFP_ATOMIC 1

/* open flags */
#define O_RDONLY 0
#define O_WRONLY 1
#define O_RDWR 2
#define O_NONBLOCK 2048

/* socket families used by the corpus */
#define AF_UNSPEC 0
#define AF_UNIX 1
#define AF_INET 2
#define AF_INET6 10
#define AF_NETLINK 16
#define AF_PACKET 17
#define AF_RDS 21
#define AF_PPPOX 24
#define AF_LLC 26
#define AF_BLUETOOTH 31
#define AF_PHONET 35
#define AF_CAIF 37
#define AF_VSOCK 40
#define SOCK_STREAM 1
#define SOCK_DGRAM 2
#define SOCK_RAW 3
#define SOCK_SEQPACKET 5

struct inode {
  u32 i_rdev;
};

struct file {
  void *private_data;
  u32 f_flags;
};

struct file_operations {
  int (*open)(struct inode *, struct file *);
  int (*release)(struct inode *, struct file *);
  long (*unlocked_ioctl)(struct file *, unsigned int, unsigned long);
  long (*compat_ioctl)(struct file *, unsigned int, unsigned long);
  u32 (*poll)(struct file *, poll_table *);
  ssize_t (*read)(struct file *, char *, size_t, loff_t *);
  ssize_t (*write)(struct file *, char *, size_t, loff_t *);
  int (*mmap)(struct file *, void *);
  loff_t (*llseek)(struct file *, loff_t, int);
  void *owner;
};

struct miscdevice {
  int minor;
  const char *name;
  const char *nodename;
  const struct file_operations *fops;
};

struct sockaddr {
  u16 sa_family;
  char sa_data[14];
};

struct msghdr {
  void *msg_name;
  u32 msg_namelen;
  void *msg_iov;
  size_t msg_iovlen;
  void *msg_control;
  size_t msg_controllen;
  u32 msg_flags;
};

struct socket {
  void *sk;
  u32 state;
  u32 sk_type;
};

struct proto_ops {
  int family;
  void *owner;
  int (*release)(struct socket *);
  int (*bind)(struct socket *, struct sockaddr *, int);
  int (*connect)(struct socket *, struct sockaddr *, int, int);
  int (*accept)(struct socket *, struct socket *, int);
  int (*getname)(struct socket *, struct sockaddr *, int);
  u32 (*poll)(struct file *, struct socket *, poll_table *);
  int (*ioctl)(struct socket *, unsigned int, unsigned long);
  int (*listen)(struct socket *, int);
  int (*shutdown)(struct socket *, int);
  int (*setsockopt)(struct socket *, int, int, char *, unsigned int);
  int (*getsockopt)(struct socket *, int, int, char *, int *);
  int (*sendmsg)(struct socket *, struct msghdr *, size_t);
  int (*recvmsg)(struct socket *, struct msghdr *, size_t, int);
};

struct net_proto_family {
  int family;
  void *owner;
};

struct mutex {
  int locked;
};

struct list_head {
  void *next;
  void *prev;
};

struct completion {
  int done;
};
|}

(** The shared header as an AST, parsed once when this module initialises
    and shared by every index built on it, across worker domains too: the
    AST is immutable, and the header holds no statements, so it draws no
    statement ids. It is evaluated eagerly because forcing one lazy value
    from two domains at once raises. *)
let header : Csrc.Ast.file =
  Csrc.Parser.parse_file ~file:"include/kernel.h" ~sid:(ref 0) kernel_h

(** The shared header together with a parsed module source. Only the body
    is parsed; it draws its statement ids from [sid], so sids stay
    globally unique when the counter is threaded through several calls. *)
let parse_with_header ~sid ~file (source : string) : Csrc.Ast.file list =
  [ header; Csrc.Parser.parse_file ~file ~sid source ]
