/* The benchmark harness's clock, returned as a tagged OCaml int so that
   reading it never allocates (a span costs two calls and no GC work). */
#include <time.h>
#include <caml/mlvalues.h>

/* Monotonic wall clock, nanoseconds. */
value pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
