(** Lightweight trace spans and instant events with bounded per-domain rings.

    Each domain appends completed spans into its own fixed-capacity ring
    buffer (no locking on the hot path beyond the ring's own writes); when
    a ring is full the oldest events are overwritten and a drop count is
    kept.  [events] merges all rings into a time-sorted list, and
    [to_chrome_json] renders the Chrome trace-event array format that
    chrome://tracing and Perfetto load directly. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;  (* 'X' = complete span, 'i' = instant *)
  ev_ts : int64;  (* start, ns *)
  ev_dur : int64;  (* span duration, ns; 0 for instants *)
  ev_dom : int;  (* Domain.self at record time *)
}

type ring = {
  buf : event option array;
  mutable head : int;  (* next write position *)
  mutable count : int;  (* total events ever written *)
}

(** Per-domain ring capacity.  8192 spans per domain keeps the tail of a
    long run while bounding memory at a few hundred KiB per domain. *)
let capacity = 8192

let on = ref false

let set_enabled b = on := b
let enabled () = !on

let rings_lock = Mutex.create ()
let rings : ring list ref = ref []

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = { buf = Array.make capacity None; head = 0; count = 0 } in
      Mutex.protect rings_lock (fun () -> rings := r :: !rings);
      r)

let monotonic_ns = Clock.monotonic_ns

let push ev =
  let r = Domain.DLS.get ring_key in
  r.buf.(r.head) <- Some ev;
  r.head <- (r.head + 1) mod capacity;
  r.count <- r.count + 1

(** Record an instant event (a point in time, no duration). *)
let instant ?(cat = "rt") name =
  if !on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = 'i';
        ev_ts = monotonic_ns ();
        ev_dur = 0L;
        ev_dom = (Domain.self () :> int);
      }

(** Run [f] inside a named span.  When tracing is disabled this is just
    [f ()] — one load and a branch of overhead. *)
let with_span ?(cat = "rt") name f =
  if not !on then f ()
  else begin
    let t0 = monotonic_ns () in
    Fun.protect f ~finally:(fun () ->
        push
          {
            ev_name = name;
            ev_cat = cat;
            ev_ph = 'X';
            ev_ts = t0;
            ev_dur = Int64.sub (monotonic_ns ()) t0;
            ev_dom = (Domain.self () :> int);
          })
  end

(** Number of events overwritten because a ring wrapped. *)
let dropped () =
  Mutex.protect rings_lock (fun () ->
      List.fold_left
        (fun acc r -> acc + Stdlib.max 0 (r.count - capacity))
        0 !rings)

(** All retained events, merged across domains and sorted by start time. *)
let events () =
  let all =
    Mutex.protect rings_lock (fun () ->
        List.concat_map
          (fun r -> Array.to_list r.buf |> List.filter_map Fun.id)
          !rings)
  in
  List.sort (fun a b -> Int64.compare a.ev_ts b.ev_ts) all

let reset () =
  Mutex.protect rings_lock (fun () ->
      List.iter
        (fun r ->
          Array.fill r.buf 0 capacity None;
          r.head <- 0;
          r.count <- 0)
        !rings)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** Render the retained events as a Chrome trace-event JSON array.
    Timestamps and durations are microseconds (the format's unit); the
    recording domain becomes the [tid]. *)
let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n";
      let us ns = Int64.to_float ns /. 1e3 in
      match ev.ev_ph with
      | 'X' ->
          Buffer.add_string b
            (Printf.sprintf
               {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d}|}
               (json_escape ev.ev_name) (json_escape ev.ev_cat) (us ev.ev_ts)
               (us ev.ev_dur) ev.ev_dom)
      | _ ->
          Buffer.add_string b
            (Printf.sprintf
               {|{"name":"%s","cat":"%s","ph":"i","ts":%.3f,"s":"t","pid":1,"tid":%d}|}
               (json_escape ev.ev_name) (json_escape ev.ev_cat) (us ev.ev_ts)
               ev.ev_dom))
    (events ());
  Buffer.add_string b "]\n";
  Buffer.contents b
