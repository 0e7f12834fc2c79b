/* wait4(2) and CLOCK_MONOTONIC for the benchmark runner.

   OCaml's Unix library has no getrusage/wait4, and the end-to-end
   metrics need exact per-process accounting: wait4 returns the child's
   own usage plus that of every descendant it reaped, so a sweep's
   supervised workers are included in the CPU time, and ru_maxrss is the
   largest resident set anywhere in the reaped tree. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static long usec(struct timeval tv) {
  return (long)tv.tv_sec * 1000000L + (long)tv.tv_usec;
}

/* Blocking wait4 on one pid. Returns (kind, code, cpu_us, maxrss_kb):
   kind 0 = exited with code, 1 = killed by signal code, 2 = interrupted
   by a signal before the child ended (the caller retries after its
   handlers ran), -1 = wait4 failed with errno code. */
value ipibench_wait4(value vpid) {
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  int err;
  caml_enter_blocking_section();
  r = wait4(pid, &status, 0, &ru);
  err = errno;
  caml_leave_blocking_section();
  long kind, code, cpu = 0, rss = 0;
  if (r < 0) {
    kind = (err == EINTR) ? 2 : -1;
    code = err;
  } else {
    if (WIFEXITED(status)) {
      kind = 0;
      code = WEXITSTATUS(status);
    } else {
      kind = 1;
      code = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    }
    cpu = usec(ru.ru_utime) + usec(ru.ru_stime);
    rss = ru.ru_maxrss;
  }
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_long(kind));
  Store_field(res, 1, Val_long(code));
  Store_field(res, 2, Val_long(cpu));
  Store_field(res, 3, Val_long(rss));
  CAMLreturn(res);
}

double ipibench_now(value unit) {
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value ipibench_now_byte(value unit) {
  return caml_copy_double(ipibench_now(unit));
}
