(** The monotonic clock behind every duration the runtime measures
    ([Hilti_rt.Profiler] blocks, [Trace] spans).

    [CLOCK_MONOTONIC] never steps backwards and has nanosecond
    resolution, unlike [Unix.gettimeofday] scaled to nanoseconds: that is
    wall-clock time, and as a double near today's epoch it only resolves
    multiples of 256 ns — too coarse for the sub-microsecond glue and
    parse windows.  The origin is arbitrary (typically boot), so only
    differences are meaningful. *)

external now_ns : unit -> int = "hilti_clock_monotonic_ns" [@@noalloc]

let monotonic_ns () = Int64.of_int (now_ns ())
