/* Monotonic nanosecond clock and an absolute-deadline sleep for the
   open-loop pacer.  Unix.sleepf overshoots by the thread's timer slack
   (50us by default) plus wakeup latency, which is as large as the
   latencies being measured, so the pacer lowers its slack and sleeps to
   an absolute CLOCK_MONOTONIC deadline instead. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <caml/mlvalues.h>
#include <caml/signals.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

value perfbench_sleep_until_ns(value target)
{
  intnat t = Long_val(target);
  struct timespec ts;
  ts.tv_sec = t / 1000000000;
  ts.tv_nsec = t % 1000000000;
  caml_enter_blocking_section();
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, NULL) == EINTR) {
  }
  caml_leave_blocking_section();
  return Val_unit;
}

/* Timer slack is a per-thread attribute: call from each pacing thread. */
value perfbench_set_timerslack_ns(value ns)
{
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
  return Val_unit;
}

value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
