#include "src/corpus/syscall_table.h"

#include <unordered_map>

namespace lapis::corpus {

namespace {

// x86-64 Linux 3.19 (arch/x86/syscalls/syscall_64.tbl), numbers 0..319.
constexpr std::string_view kNames[kSyscallCount] = {
    /*   0 */ "read",
    /*   1 */ "write",
    /*   2 */ "open",
    /*   3 */ "close",
    /*   4 */ "stat",
    /*   5 */ "fstat",
    /*   6 */ "lstat",
    /*   7 */ "poll",
    /*   8 */ "lseek",
    /*   9 */ "mmap",
    /*  10 */ "mprotect",
    /*  11 */ "munmap",
    /*  12 */ "brk",
    /*  13 */ "rt_sigaction",
    /*  14 */ "rt_sigprocmask",
    /*  15 */ "rt_sigreturn",
    /*  16 */ "ioctl",
    /*  17 */ "pread64",
    /*  18 */ "pwrite64",
    /*  19 */ "readv",
    /*  20 */ "writev",
    /*  21 */ "access",
    /*  22 */ "pipe",
    /*  23 */ "select",
    /*  24 */ "sched_yield",
    /*  25 */ "mremap",
    /*  26 */ "msync",
    /*  27 */ "mincore",
    /*  28 */ "madvise",
    /*  29 */ "shmget",
    /*  30 */ "shmat",
    /*  31 */ "shmctl",
    /*  32 */ "dup",
    /*  33 */ "dup2",
    /*  34 */ "pause",
    /*  35 */ "nanosleep",
    /*  36 */ "getitimer",
    /*  37 */ "alarm",
    /*  38 */ "setitimer",
    /*  39 */ "getpid",
    /*  40 */ "sendfile",
    /*  41 */ "socket",
    /*  42 */ "connect",
    /*  43 */ "accept",
    /*  44 */ "sendto",
    /*  45 */ "recvfrom",
    /*  46 */ "sendmsg",
    /*  47 */ "recvmsg",
    /*  48 */ "shutdown",
    /*  49 */ "bind",
    /*  50 */ "listen",
    /*  51 */ "getsockname",
    /*  52 */ "getpeername",
    /*  53 */ "socketpair",
    /*  54 */ "setsockopt",
    /*  55 */ "getsockopt",
    /*  56 */ "clone",
    /*  57 */ "fork",
    /*  58 */ "vfork",
    /*  59 */ "execve",
    /*  60 */ "exit",
    /*  61 */ "wait4",
    /*  62 */ "kill",
    /*  63 */ "uname",
    /*  64 */ "semget",
    /*  65 */ "semop",
    /*  66 */ "semctl",
    /*  67 */ "shmdt",
    /*  68 */ "msgget",
    /*  69 */ "msgsnd",
    /*  70 */ "msgrcv",
    /*  71 */ "msgctl",
    /*  72 */ "fcntl",
    /*  73 */ "flock",
    /*  74 */ "fsync",
    /*  75 */ "fdatasync",
    /*  76 */ "truncate",
    /*  77 */ "ftruncate",
    /*  78 */ "getdents",
    /*  79 */ "getcwd",
    /*  80 */ "chdir",
    /*  81 */ "fchdir",
    /*  82 */ "rename",
    /*  83 */ "mkdir",
    /*  84 */ "rmdir",
    /*  85 */ "creat",
    /*  86 */ "link",
    /*  87 */ "unlink",
    /*  88 */ "symlink",
    /*  89 */ "readlink",
    /*  90 */ "chmod",
    /*  91 */ "fchmod",
    /*  92 */ "chown",
    /*  93 */ "fchown",
    /*  94 */ "lchown",
    /*  95 */ "umask",
    /*  96 */ "gettimeofday",
    /*  97 */ "getrlimit",
    /*  98 */ "getrusage",
    /*  99 */ "sysinfo",
    /* 100 */ "times",
    /* 101 */ "ptrace",
    /* 102 */ "getuid",
    /* 103 */ "syslog",
    /* 104 */ "getgid",
    /* 105 */ "setuid",
    /* 106 */ "setgid",
    /* 107 */ "geteuid",
    /* 108 */ "getegid",
    /* 109 */ "setpgid",
    /* 110 */ "getppid",
    /* 111 */ "getpgrp",
    /* 112 */ "setsid",
    /* 113 */ "setreuid",
    /* 114 */ "setregid",
    /* 115 */ "getgroups",
    /* 116 */ "setgroups",
    /* 117 */ "setresuid",
    /* 118 */ "getresuid",
    /* 119 */ "setresgid",
    /* 120 */ "getresgid",
    /* 121 */ "getpgid",
    /* 122 */ "setfsuid",
    /* 123 */ "setfsgid",
    /* 124 */ "getsid",
    /* 125 */ "capget",
    /* 126 */ "capset",
    /* 127 */ "rt_sigpending",
    /* 128 */ "rt_sigtimedwait",
    /* 129 */ "rt_sigqueueinfo",
    /* 130 */ "rt_sigsuspend",
    /* 131 */ "sigaltstack",
    /* 132 */ "utime",
    /* 133 */ "mknod",
    /* 134 */ "uselib",
    /* 135 */ "personality",
    /* 136 */ "ustat",
    /* 137 */ "statfs",
    /* 138 */ "fstatfs",
    /* 139 */ "sysfs",
    /* 140 */ "getpriority",
    /* 141 */ "setpriority",
    /* 142 */ "sched_setparam",
    /* 143 */ "sched_getparam",
    /* 144 */ "sched_setscheduler",
    /* 145 */ "sched_getscheduler",
    /* 146 */ "sched_get_priority_max",
    /* 147 */ "sched_get_priority_min",
    /* 148 */ "sched_rr_get_interval",
    /* 149 */ "mlock",
    /* 150 */ "munlock",
    /* 151 */ "mlockall",
    /* 152 */ "munlockall",
    /* 153 */ "vhangup",
    /* 154 */ "modify_ldt",
    /* 155 */ "pivot_root",
    /* 156 */ "_sysctl",
    /* 157 */ "prctl",
    /* 158 */ "arch_prctl",
    /* 159 */ "adjtimex",
    /* 160 */ "setrlimit",
    /* 161 */ "chroot",
    /* 162 */ "sync",
    /* 163 */ "acct",
    /* 164 */ "settimeofday",
    /* 165 */ "mount",
    /* 166 */ "umount2",
    /* 167 */ "swapon",
    /* 168 */ "swapoff",
    /* 169 */ "reboot",
    /* 170 */ "sethostname",
    /* 171 */ "setdomainname",
    /* 172 */ "iopl",
    /* 173 */ "ioperm",
    /* 174 */ "create_module",
    /* 175 */ "init_module",
    /* 176 */ "delete_module",
    /* 177 */ "get_kernel_syms",
    /* 178 */ "query_module",
    /* 179 */ "quotactl",
    /* 180 */ "nfsservctl",
    /* 181 */ "getpmsg",
    /* 182 */ "putpmsg",
    /* 183 */ "afs_syscall",
    /* 184 */ "tuxcall",
    /* 185 */ "security",
    /* 186 */ "gettid",
    /* 187 */ "readahead",
    /* 188 */ "setxattr",
    /* 189 */ "lsetxattr",
    /* 190 */ "fsetxattr",
    /* 191 */ "getxattr",
    /* 192 */ "lgetxattr",
    /* 193 */ "fgetxattr",
    /* 194 */ "listxattr",
    /* 195 */ "llistxattr",
    /* 196 */ "flistxattr",
    /* 197 */ "removexattr",
    /* 198 */ "lremovexattr",
    /* 199 */ "fremovexattr",
    /* 200 */ "tkill",
    /* 201 */ "time",
    /* 202 */ "futex",
    /* 203 */ "sched_setaffinity",
    /* 204 */ "sched_getaffinity",
    /* 205 */ "set_thread_area",
    /* 206 */ "io_setup",
    /* 207 */ "io_destroy",
    /* 208 */ "io_getevents",
    /* 209 */ "io_submit",
    /* 210 */ "io_cancel",
    /* 211 */ "get_thread_area",
    /* 212 */ "lookup_dcookie",
    /* 213 */ "epoll_create",
    /* 214 */ "epoll_ctl_old",
    /* 215 */ "epoll_wait_old",
    /* 216 */ "remap_file_pages",
    /* 217 */ "getdents64",
    /* 218 */ "set_tid_address",
    /* 219 */ "restart_syscall",
    /* 220 */ "semtimedop",
    /* 221 */ "fadvise64",
    /* 222 */ "timer_create",
    /* 223 */ "timer_settime",
    /* 224 */ "timer_gettime",
    /* 225 */ "timer_getoverrun",
    /* 226 */ "timer_delete",
    /* 227 */ "clock_settime",
    /* 228 */ "clock_gettime",
    /* 229 */ "clock_getres",
    /* 230 */ "clock_nanosleep",
    /* 231 */ "exit_group",
    /* 232 */ "epoll_wait",
    /* 233 */ "epoll_ctl",
    /* 234 */ "tgkill",
    /* 235 */ "utimes",
    /* 236 */ "vserver",
    /* 237 */ "mbind",
    /* 238 */ "set_mempolicy",
    /* 239 */ "get_mempolicy",
    /* 240 */ "mq_open",
    /* 241 */ "mq_unlink",
    /* 242 */ "mq_timedsend",
    /* 243 */ "mq_timedreceive",
    /* 244 */ "mq_notify",
    /* 245 */ "mq_getsetattr",
    /* 246 */ "kexec_load",
    /* 247 */ "waitid",
    /* 248 */ "add_key",
    /* 249 */ "request_key",
    /* 250 */ "keyctl",
    /* 251 */ "ioprio_set",
    /* 252 */ "ioprio_get",
    /* 253 */ "inotify_init",
    /* 254 */ "inotify_add_watch",
    /* 255 */ "inotify_rm_watch",
    /* 256 */ "migrate_pages",
    /* 257 */ "openat",
    /* 258 */ "mkdirat",
    /* 259 */ "mknodat",
    /* 260 */ "fchownat",
    /* 261 */ "futimesat",
    /* 262 */ "newfstatat",
    /* 263 */ "unlinkat",
    /* 264 */ "renameat",
    /* 265 */ "linkat",
    /* 266 */ "symlinkat",
    /* 267 */ "readlinkat",
    /* 268 */ "fchmodat",
    /* 269 */ "faccessat",
    /* 270 */ "pselect6",
    /* 271 */ "ppoll",
    /* 272 */ "unshare",
    /* 273 */ "set_robust_list",
    /* 274 */ "get_robust_list",
    /* 275 */ "splice",
    /* 276 */ "tee",
    /* 277 */ "sync_file_range",
    /* 278 */ "vmsplice",
    /* 279 */ "move_pages",
    /* 280 */ "utimensat",
    /* 281 */ "epoll_pwait",
    /* 282 */ "signalfd",
    /* 283 */ "timerfd_create",
    /* 284 */ "eventfd",
    /* 285 */ "fallocate",
    /* 286 */ "timerfd_settime",
    /* 287 */ "timerfd_gettime",
    /* 288 */ "accept4",
    /* 289 */ "signalfd4",
    /* 290 */ "eventfd2",
    /* 291 */ "epoll_create1",
    /* 292 */ "dup3",
    /* 293 */ "pipe2",
    /* 294 */ "inotify_init1",
    /* 295 */ "preadv",
    /* 296 */ "pwritev",
    /* 297 */ "rt_tgsigqueueinfo",
    /* 298 */ "perf_event_open",
    /* 299 */ "recvmmsg",
    /* 300 */ "fanotify_init",
    /* 301 */ "fanotify_mark",
    /* 302 */ "prlimit64",
    /* 303 */ "name_to_handle_at",
    /* 304 */ "open_by_handle_at",
    /* 305 */ "clock_adjtime",
    /* 306 */ "syncfs",
    /* 307 */ "sendmmsg",
    /* 308 */ "setns",
    /* 309 */ "getcpu",
    /* 310 */ "process_vm_readv",
    /* 311 */ "process_vm_writev",
    /* 312 */ "kcmp",
    /* 313 */ "finit_module",
    /* 314 */ "sched_setattr",
    /* 315 */ "sched_getattr",
    /* 316 */ "renameat2",
    /* 317 */ "seccomp",
    /* 318 */ "getrandom",
    /* 319 */ "memfd_create",
};

int Nr(std::string_view name) {
  for (int i = 0; i < kSyscallCount; ++i) {
    if (kNames[i] == name) {
      return i;
    }
  }
  return -1;
}

}  // namespace

std::string_view SyscallName(int nr) {
  if (nr < 0 || nr >= kSyscallCount) {
    return {};
  }
  return kNames[nr];
}

std::optional<int> SyscallNumber(std::string_view name) {
  static const std::unordered_map<std::string_view, int>* kIndex = [] {
    auto* index = new std::unordered_map<std::string_view, int>();
    for (int i = 0; i < kSyscallCount; ++i) {
      index->emplace(kNames[i], i);
    }
    return index;
  }();
  auto it = kIndex->find(name);
  if (it == kIndex->end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string I386SyscallName(int nr) {
  // Curated subset of arch/x86/syscalls/syscall_32.tbl: the calls legacy
  // 32-bit code actually issues through int $0x80.
  switch (nr) {
    case 1: return "exit";
    case 2: return "fork";
    case 3: return "read";
    case 4: return "write";
    case 5: return "open";
    case 6: return "close";
    case 7: return "waitpid";
    case 9: return "link";
    case 10: return "unlink";
    case 11: return "execve";
    case 12: return "chdir";
    case 13: return "time";
    case 15: return "chmod";
    case 19: return "lseek";
    case 20: return "getpid";
    case 21: return "mount";
    case 23: return "setuid";
    case 24: return "getuid";
    case 33: return "access";
    case 37: return "kill";
    case 38: return "rename";
    case 39: return "mkdir";
    case 40: return "rmdir";
    case 41: return "dup";
    case 42: return "pipe";
    case 45: return "brk";
    case 54: return "ioctl";
    case 55: return "fcntl";
    case 63: return "dup2";
    case 78: return "gettimeofday";
    case 85: return "readlink";
    case 90: return "mmap";
    case 91: return "munmap";
    case 102: return "socketcall";
    case 106: return "stat";
    case 107: return "lstat";
    case 108: return "fstat";
    case 114: return "wait4";
    case 119: return "sigreturn";
    case 120: return "clone";
    case 122: return "uname";
    case 125: return "mprotect";
    case 140: return "_llseek";
    case 141: return "getdents";
    case 142: return "select";
    case 146: return "writev";
    case 145: return "readv";
    case 162: return "nanosleep";
    case 173: return "rt_sigreturn";
    case 174: return "rt_sigaction";
    case 175: return "rt_sigprocmask";
    case 192: return "mmap2";
    case 195: return "stat64";
    case 197: return "fstat64";
    case 221: return "fcntl64";
    case 224: return "gettid";
    case 240: return "futex";
    case 252: return "exit_group";
    case 295: return "openat";
    default:
      return "i386:" + std::to_string(nr);
  }
}

const std::vector<int>& StartupSyscalls() {
  static const std::vector<int>* kList = [] {
    // 40 syscalls spanning the libc/ld.so/libpthread/librt initialization
    // paths. Every dynamically-linked package footprint includes these.
    const char* names[] = {
        "read",          "write",        "open",       "close",
        "stat",          "fstat",        "lseek",      "mmap",
        "mprotect",      "munmap",       "mremap",     "madvise",
        "brk",           "rt_sigaction", "rt_sigprocmask",
        "rt_sigreturn",  "exit",         "exit_group", "getpid",
        "gettid",        "getuid",       "getgid",     "setresuid",
        "setresgid",     "clone",        "vfork",      "execve",
        "kill",          "getrlimit",    "getcwd",     "getdents",
        "newfstatat",    "futex",        "set_tid_address",
        "set_robust_list", "arch_prctl", "dup2",       "fcntl",
        "writev",        "tgkill",
    };
    auto* list = new std::vector<int>();
    for (const char* name : names) {
      list->push_back(Nr(name));
    }
    return list;
  }();
  return *kList;
}

const std::vector<StartupAttribution>& StartupAttributions() {
  static const std::vector<StartupAttribution>* kList = [] {
    auto* list = new std::vector<StartupAttribution>();
    auto add = [list](const char* name, std::vector<CoreLib> libs) {
      list->push_back(StartupAttribution{Nr(name), std::move(libs)});
    };
    // Paper Table 5 layout: ld.so-only, libc-only, shared, pthread, librt.
    add("arch_prctl", {CoreLib::kLdSo});
    add("mprotect", {CoreLib::kLibc, CoreLib::kLdSo});
    add("open", {CoreLib::kLdSo});
    add("stat", {CoreLib::kLdSo});
    add("fstat", {CoreLib::kLdSo});
    add("close", {CoreLib::kLibc, CoreLib::kLdSo});
    add("read", {CoreLib::kLibc, CoreLib::kLdSo});
    add("lseek", {CoreLib::kLibc, CoreLib::kLdSo});
    add("mmap", {CoreLib::kLibc, CoreLib::kLdSo});
    add("munmap", {CoreLib::kLibc, CoreLib::kLdSo});
    add("mremap", {CoreLib::kLibc, CoreLib::kLdSo});
    add("madvise", {CoreLib::kLibc, CoreLib::kLdSo});
    add("getdents", {CoreLib::kLibc, CoreLib::kLdSo});
    add("getcwd", {CoreLib::kLibc, CoreLib::kLdSo});
    add("brk", {CoreLib::kLdSo});
    add("exit", {CoreLib::kLibc, CoreLib::kLdSo});
    add("exit_group", {CoreLib::kLibc, CoreLib::kLdSo});
    add("getpid", {CoreLib::kLibc, CoreLib::kLdSo});
    add("newfstatat", {CoreLib::kLibc, CoreLib::kLdSo});
    add("write", {CoreLib::kLibc});
    add("clone", {CoreLib::kLibc});
    add("vfork", {CoreLib::kLibc});
    add("execve", {CoreLib::kLibc});
    add("getuid", {CoreLib::kLibc});
    add("getgid", {CoreLib::kLibc});
    add("setresuid", {CoreLib::kLibc});
    add("setresgid", {CoreLib::kLibc});
    add("gettid", {CoreLib::kLibc});
    add("kill", {CoreLib::kLibc});
    add("getrlimit", {CoreLib::kLibc});
    add("dup2", {CoreLib::kLibc});
    add("fcntl", {CoreLib::kLibc});
    add("writev", {CoreLib::kLibc});
    add("tgkill", {CoreLib::kLibc});
    add("rt_sigaction", {CoreLib::kLibc});
    add("rt_sigreturn", {CoreLib::kLibpthread});
    add("set_robust_list", {CoreLib::kLibpthread});
    add("set_tid_address", {CoreLib::kLibpthread});
    add("rt_sigprocmask", {CoreLib::kLibrt});
    add("futex", {CoreLib::kLibc, CoreLib::kLdSo, CoreLib::kLibpthread});
    return list;
  }();
  return *kList;
}

const std::vector<int>& UnusedSyscalls() {
  static const std::vector<int>* kList = [] {
    // Table 3: 10 retired without entry points + 8 defined-but-unused.
    const char* names[] = {
        "set_thread_area", "get_thread_area", "tuxcall",
        "create_module",   "get_kernel_syms", "query_module",
        "getpmsg",         "putpmsg",         "epoll_ctl_old",
        "epoll_wait_old",  "sysfs",           "rt_tgsigqueueinfo",
        "get_robust_list", "remap_file_pages", "mq_notify",
        "lookup_dcookie",  "restart_syscall", "move_pages",
    };
    auto* list = new std::vector<int>();
    for (const char* name : names) {
      list->push_back(Nr(name));
    }
    return list;
  }();
  return *kList;
}

const std::vector<int>& RetiredButAttemptedSyscalls() {
  static const std::vector<int>* kList = [] {
    const char* names[] = {"uselib", "nfsservctl", "afs_syscall", "vserver",
                           "security"};
    auto* list = new std::vector<int>();
    for (const char* name : names) {
      list->push_back(Nr(name));
    }
    return list;
  }();
  return *kList;
}

const std::vector<UnweightedAnchor>& UnweightedAnchors() {
  static const std::vector<UnweightedAnchor>* kList = [] {
    auto* list = new std::vector<UnweightedAnchor>();
    auto add = [list](const char* name, double pct) {
      list->push_back(UnweightedAnchor{Nr(name), pct / 100.0});
    };
    // Table 8 (set*id / get*id and atomic directory ops).
    add("setuid", 15.67);
    add("setreuid", 1.88);
    add("setgid", 12.07);
    add("setregid", 1.24);
    add("geteuid", 55.15);
    add("getresuid", 36.19);
    add("getegid", 48.87);
    add("getresgid", 36.14);
    add("access", 74.24);
    add("faccessat", 0.63);
    add("mkdir", 52.07);
    add("mkdirat", 0.34);
    add("rename", 43.18);
    add("renameat", 0.30);
    add("readlink", 46.38);
    add("readlinkat", 0.50);
    add("chown", 24.59);
    add("fchownat", 0.23);
    add("chmod", 39.80);
    add("fchmodat", 0.13);
    // Table 9 (old vs new).
    add("getdents64", 0.08);
    add("utime", 8.57);
    add("utimes", 17.90);
    add("fork", 0.07);
    add("tkill", 0.51);
    add("wait4", 60.56);
    add("waitid", 0.24);
    // Table 10 (Linux-specific vs portable).
    add("preadv", 0.15);
    add("readv", 62.23);
    add("pwritev", 0.16);
    add("accept4", 0.93);
    add("accept", 29.35);
    add("ppoll", 3.90);
    add("poll", 71.07);
    add("recvmmsg", 0.11);
    add("recvmsg", 68.82);
    add("sendmmsg", 5.17);
    add("sendmsg", 42.49);
    add("pipe2", 40.33);
    add("pipe", 50.33);
    // Table 11 (powerful vs simple).
    add("pread64", 27.23);
    add("dup3", 8.72);
    add("dup", 66.64);
    add("recvfrom", 53.80);
    add("sendto", 71.71);
    add("select", 61.53);
    add("pselect6", 4.13);
    add("chdir", 44.61);
    add("fchdir", 2.20);
    return list;
  }();
  return *kList;
}

const std::vector<VariantPair>& VariantPairs() {
  static const std::vector<VariantPair>* kList = [] {
    auto* list = new std::vector<VariantPair>();
    auto add = [list](VariantTable table, const char* left,
                      const char* right) {
      list->push_back(VariantPair{table, left, Nr(left), right, Nr(right)});
    };
    add(VariantTable::kSecureIds, "setuid", "setresuid");
    add(VariantTable::kSecureIds, "setreuid", "setresuid");
    add(VariantTable::kSecureIds, "setgid", "setresgid");
    add(VariantTable::kSecureIds, "setregid", "setresgid");
    add(VariantTable::kSecureIds, "getuid", "getresuid");
    add(VariantTable::kSecureIds, "geteuid", "getresuid");
    add(VariantTable::kSecureIds, "getgid", "getresgid");
    add(VariantTable::kSecureIds, "getegid", "getresgid");
    add(VariantTable::kSecureAtomicDir, "access", "faccessat");
    add(VariantTable::kSecureAtomicDir, "mkdir", "mkdirat");
    add(VariantTable::kSecureAtomicDir, "rename", "renameat");
    add(VariantTable::kSecureAtomicDir, "readlink", "readlinkat");
    add(VariantTable::kSecureAtomicDir, "chown", "fchownat");
    add(VariantTable::kSecureAtomicDir, "chmod", "fchmodat");
    add(VariantTable::kOldNew, "getdents", "getdents64");
    add(VariantTable::kOldNew, "utime", "utimes");
    add(VariantTable::kOldNew, "fork", "clone");
    add(VariantTable::kOldNew, "vfork", "clone");
    add(VariantTable::kOldNew, "tkill", "tgkill");
    add(VariantTable::kOldNew, "wait4", "waitid");
    add(VariantTable::kPortability, "preadv", "readv");
    add(VariantTable::kPortability, "pwritev", "writev");
    add(VariantTable::kPortability, "accept4", "accept");
    add(VariantTable::kPortability, "ppoll", "poll");
    add(VariantTable::kPortability, "recvmmsg", "recvmsg");
    add(VariantTable::kPortability, "sendmmsg", "sendmsg");
    add(VariantTable::kPortability, "pipe2", "pipe");
    add(VariantTable::kPowerSimplicity, "pread64", "read");
    add(VariantTable::kPowerSimplicity, "dup3", "dup2");
    add(VariantTable::kPowerSimplicity, "recvfrom", "recvmsg");
    add(VariantTable::kPowerSimplicity, "sendto", "sendmsg");
    add(VariantTable::kPowerSimplicity, "pselect6", "select");
    add(VariantTable::kPowerSimplicity, "fchdir", "chdir");
    return list;
  }();
  return *kList;
}

const std::vector<PinnedRank>& PinnedRanks() {
  static const std::vector<PinnedRank>* kList = [] {
    auto* list = new std::vector<PinnedRank>();
    auto add = [list](const char* name, int rank) {
      list->push_back(PinnedRank{Nr(name), rank});
    };
    // Graphene (Table 6): the missing scheduling calls gate nearly every
    // package; adding them recovers ~21% via the next block of gaps.
    add("sched_setscheduler", 41);
    add("sched_getscheduler", 42);
    add("sched_setparam", 43);
    // The vectored calls are needed by any package touching a TTY or
    // process flags; they sit right after the startup block (§3.3).
    add("ioctl", 44);
    add("prctl", 45);
    add("statfs", 118);
    add("getxattr", 121);
    add("fallocate", 124);
    add("eventfd2", 127);
    // FreeBSD emulation layer (62.3%): gaps cluster near the 50-60% band.
    add("inotify_init", 146);
    add("umount2", 149);
    add("splice", 152);
    add("timerfd_create", 155);
    add("inotify_add_watch", 158);
    add("timerfd_settime", 161);
    return list;
  }();
  return *kList;
}

const std::vector<TailSyscallPlan>& TailSyscallPlans() {
  static const std::vector<TailSyscallPlan>* kList = [] {
    auto* list = new std::vector<TailSyscallPlan>();
    auto add = [list](const char* name, double pct,
                      std::vector<std::string> pkgs, bool via_library) {
      list->push_back(
          TailSyscallPlan{Nr(name), pct / 100.0, std::move(pkgs),
                          via_library});
    };
    // Table 1: syscalls only used via particular libraries.
    add("mbind", 36.0, {"libnuma", "libopenblas"}, true);
    add("add_key", 27.2, {"libkeyutils"}, true);
    add("keyctl", 27.2, {"pam-keyutil"}, true);
    add("request_key", 14.4, {"keyutils-clients"}, true);
    add("preadv", 11.7, {"libc-extras"}, true);
    add("pwritev", 11.7, {"libc-extras"}, true);
    // Table 2: syscalls dominated by particular packages.
    add("seccomp", 1.0, {"coop-computing-tools"}, false);
    add("sched_setattr", 1.0, {"coop-computing-tools"}, false);
    add("sched_getattr", 1.0, {"coop-computing-tools"}, false);
    add("kexec_load", 1.0, {"kexec-tools"}, false);
    add("clock_adjtime", 4.0, {"systemd-tools"}, false);
    add("renameat2", 4.0, {"systemd-tools", "coop-computing-tools"}, false);
    add("mq_timedsend", 1.0, {"qemu-user"}, false);
    add("mq_getsetattr", 1.0, {"qemu-user"}, false);
    add("io_getevents", 1.0, {"ioping", "zfs-fuse"}, false);
    add("getcpu", 4.0, {"valgrind", "rt-tests"}, false);
    // L4Linux's Table 6 gaps: rare enough that missing them costs little.
    add("quotactl", 0.5, {"quota-tools"}, false);
    add("migrate_pages", 0.4, {"numactl-tools"}, false);
    // §3.1 prose: retired but still attempted.
    add("nfsservctl", 7.0, {"nfs-utils"}, false);
    add("uselib", 2.0, {"libc-legacy-tools"}, false);
    add("afs_syscall", 1.0, {"openafs-client"}, false);
    add("vserver", 1.0, {"util-vserver"}, false);
    add("security", 1.0, {"selinux-legacy"}, false);
    // POSIX vs System V message queues (§3.1: POSIX mq lower importance).
    add("mq_open", 6.0, {"mqueue-tools", "qemu-user"}, false);
    add("mq_unlink", 6.0, {"mqueue-tools"}, false);
    add("mq_timedreceive", 3.0, {"qemu-user"}, false);
    // epoll_pwait 3% (§3.1).
    add("epoll_pwait", 3.0, {"nginx-lite", "libevent-extra"}, false);
    return list;
  }();
  return *kList;
}

}  // namespace lapis::corpus
