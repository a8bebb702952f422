/* Monotonic clock for the profiler and trace spans, returned as a tagged
   OCaml int so that reading it never allocates. */
#include <time.h>
#include <caml/mlvalues.h>

value hilti_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
