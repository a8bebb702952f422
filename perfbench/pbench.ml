(* The benchmark harness behind perfbench/run.py.

     pbench gen --proto dns|http --seed N --size N --out FILE
       Generate a trace from the seed and write it as a pcap file.

     pbench run --config NAME --pcap FILE --logs DIR [--trace]
       Load scripts and parser (timed as set-up), stream the pcap through
       the full pipeline (Iosrc -> Driver -> Bro_engine -> Bro_log), drain
       log rows into DIR/<stream>.log as they accumulate, and print one
       JSON object of raw measurements on stdout.  With --trace, spans
       are recorded around the calls into each layer, GC pauses are read
       from Runtime_events, and isolated decode/parse passes and a script
       replay follow the run.

   All spans live in this file: library code is called, never edited.
   Every span is a direct child of the Driver.run_* call on the calling
   domain (the dispatcher/collector for the sharded plane), so per-layer
   sums and an ordering check are enough to derive self times. *)

open Hilti_analyzers
module Bro_log = Mini_bro.Bro_log
module Bro_engine = Mini_bro.Bro_engine
module Bro_scripts = Mini_bro.Bro_scripts
module Bro_val = Mini_bro.Bro_val
module Iosrc = Hilti_rt.Iosrc
module Pcap = Hilti_net.Pcap

external now_ns : unit -> int = "pb_now_ns" [@@noalloc]

(* ---- Configurations -------------------------------------------------------- *)

type parser = Std | Pac

type config = {
  proto : [ `Dns | `Http ];
  parser : parser;
  compiled : bool;  (** scripts compiled to HILTI, else interpreted *)
  sharded : bool;  (** Driver.run_dns_sharded_src ~shards:1 *)
  idle_ms : int;
}

let config_of_name = function
  | "dns-hilti" ->
      { proto = `Dns; parser = Pac; compiled = true; sharded = false; idle_ms = 1000 }
  | "dns-sharded" ->
      { proto = `Dns; parser = Pac; compiled = true; sharded = true; idle_ms = 1000 }
  | "http-std" ->
      { proto = `Http; parser = Std; compiled = false; sharded = false; idle_ms = 100 }
  (* Output-check references: the other parser and the other script
     engine, with the workload's own idle timeout (connection uids are
     sequential, so one re-created connection would shift every later
     uid). *)
  | "dns-ref" ->
      { proto = `Dns; parser = Std; compiled = false; sharded = false; idle_ms = 1000 }
  | "http-ref" ->
      { proto = `Http; parser = Pac; compiled = true; sharded = false; idle_ms = 100 }
  | n -> failwith ("unknown config " ^ n)

let streams = function `Dns -> [ "dns" ] | `Http -> [ "http"; "files" ]

(* ---- Trace generation -------------------------------------------------------- *)

let gen ~proto ~seed ~size ~out =
  let src =
    match proto with
    | `Dns ->
        Hilti_traces.Dns_gen.iosrc
          { Hilti_traces.Dns_gen.default with transactions = size; seed }
    | `Http ->
        Hilti_traces.Http_gen.iosrc
          { Hilti_traces.Http_gen.default with sessions = size; seed }
  in
  let w = Pcap.open_writer out in
  Iosrc.iter
    (fun p ->
      Pcap.write_record w
        { Pcap.ts = p.Iosrc.ts; orig_len = String.length p.Iosrc.data;
          data = p.Iosrc.data })
    src;
  Pcap.close_writer w

(* ---- Set-up ---------------------------------------------------------------------- *)

type kind = Dns_kind of Driver.dns_kind | Http_kind of Driver.http_kind

let load_kind proto parser =
  match (proto, parser) with
  | `Dns, Std -> Dns_kind Driver.Dns_std
  | `Dns, Pac -> Dns_kind (Driver.Dns_pac (Dns_pac.load ()))
  | `Http, Std -> Http_kind Driver.Http_std
  | `Http, Pac -> Http_kind (Driver.Http_pac (Http_pac.load ()))

let mode_of compiled =
  if compiled then Bro_engine.Compiled else Bro_engine.Interpreted

let load_engine mode scripts =
  let logger = Bro_log.create () in
  Bro_scripts.setup_logs logger;
  let engine = Bro_engine.load ~logger mode scripts in
  Bro_engine.set_print_sink engine ignore;
  (logger, engine)

(* ---- Span accounting (traced run only) ---------------------------------------- *)

let l_input = 0
let l_script = 1
let l_set_time = 2
let l_log = 3
let l_tracer = 4  (* Runtime_events polls and event capture: our own cost *)
let layer_names = [| "input"; "script"; "set_time"; "log"; "tracer" |]
let span_ns = Array.make 5 0
let span_count = Array.make 5 0
let last_end = ref 0
let overlaps = ref 0
let foreign = ref 0
let main_domain = (Domain.self () :> int)

let record layer t0 t1 =
  span_ns.(layer) <- span_ns.(layer) + (t1 - t0);
  span_count.(layer) <- span_count.(layer) + 1;
  if t0 < !last_end then incr overlaps;
  last_end := t1;
  if (Domain.self () :> int) <> main_domain then incr foreign

(* GC pauses per domain from the runtime's own event ring: a pause runs
   from the outermost minor-collection or major-slice begin to its end. *)
module Gc_pauses = struct
  module RE = Runtime_events

  let depth = Array.make 128 0
  let start = Array.make 128 0
  let total = ref 0
  let max_ = ref 0
  let is_pause = function RE.EV_MINOR | RE.EV_MAJOR_SLICE -> true | _ -> false
  let ts t = Int64.to_int (RE.Timestamp.to_int64 t)

  let callbacks =
    RE.Callbacks.create
      ~runtime_begin:(fun dom t ph ->
        if is_pause ph && dom < 128 then begin
          if depth.(dom) = 0 then start.(dom) <- ts t;
          depth.(dom) <- depth.(dom) + 1
        end)
      ~runtime_end:(fun dom t ph ->
        if is_pause ph && dom < 128 && depth.(dom) > 0 then begin
          depth.(dom) <- depth.(dom) - 1;
          if depth.(dom) = 0 then begin
            let d = ts t - start.(dom) in
            total := !total + d;
            if d > !max_ then max_ := d
          end
        end)
      ()

  let cursor = lazy (RE.start (); RE.create_cursor None)
  let start_ () = ignore (Lazy.force cursor)
  let poll () = ignore (RE.read_poll (Lazy.force cursor) callbacks None)
end

(* ---- Log writer ---------------------------------------------------------------- *)

(* Drains Bro_log stream rows into files as they accumulate, as a disk
   writer would, so the process holds pipeline state, not the logs. *)
type writer = {
  outs : (Bro_log.stream * out_channel) list;
  mutable rows : int;
  mutable bytes : int;
}

let open_writer logger dir names =
  let outs =
    List.map
      (fun name ->
        let s = Bro_log.stream logger name in
        let oc = open_out_bin (Filename.concat dir (name ^ ".log")) in
        output_string oc (Bro_log.header s);
        output_char oc '\n';
        (s, oc))
      names
  in
  { outs; rows = 0; bytes = 0 }

let drain w =
  List.iter
    (fun ((s : Bro_log.stream), oc) ->
      match s.Bro_log.rows with
      | [] -> ()
      | rows ->
          s.Bro_log.rows <- [];
          List.iter
            (fun r ->
              output_string oc r;
              output_char oc '\n';
              w.rows <- w.rows + 1;
              w.bytes <- w.bytes + String.length r + 1)
            (List.rev rows))
    w.outs

let close_writer w = List.iter (fun (_, oc) -> close_out oc) w.outs

(* ---- Source wrapper ---------------------------------------------------------- *)

(* Window boundaries every [window] pulls.  The driver's batch size, so a
   window of the batched DNS loop is exactly one batch. *)
let window = Driver.dns_batch

type stamps = { mutable st : int array; mutable n : int }

let stamp s =
  if s.n = Array.length s.st then begin
    let a = Array.make (2 * s.n) 0 in
    Array.blit s.st 0 a 0 s.n;
    s.st <- a
  end;
  s.st.(s.n) <- now_ns ();
  s.n <- s.n + 1

let wrap_source ~traced ~writer ~stamps ~in_bytes (src0 : Iosrc.t) =
  let pulls = ref 0 in
  Iosrc.create ~kind:"pcap" (fun () ->
      if !pulls mod window = 0 then begin
        stamp stamps;
        if traced then begin
          let t0 = now_ns () in
          drain writer;
          let t1 = now_ns () in
          record l_log t0 t1;
          Gc_pauses.poll ();
          record l_tracer t1 (now_ns ())
        end
        else drain writer
      end;
      incr pulls;
      if traced then begin
        let t0 = now_ns () in
        let p = src0.Iosrc.next () in
        record l_input t0 (now_ns ());
        (match p with
        | Some p -> in_bytes := !in_bytes + String.length p.Iosrc.data
        | None -> ());
        p
      end
      else src0.Iosrc.next ())

(* ---- Sink wrapper (traced run) -------------------------------------------------- *)

type captured = Ev of string * Bro_val.t list | Time of Hilti_types.Time_ns.t

let script_alloc = [| 0. |]

let traced_sink (base : Events.sink) (capture : captured list ref) : Events.sink =
  {
    Events.raise_event =
      (fun name args ->
        let m0 = Gc.minor_words () in
        let t0 = now_ns () in
        base.Events.raise_event name args;
        let t1 = now_ns () in
        script_alloc.(0) <- script_alloc.(0) +. (Gc.minor_words () -. m0);
        record l_script t0 t1;
        capture := Ev (name, args) :: !capture;
        record l_tracer t1 (now_ns ()));
    set_time =
      (fun ts ->
        let t0 = now_ns () in
        base.Events.set_time ts;
        let t1 = now_ns () in
        record l_set_time t0 t1;
        capture := Time ts :: !capture;
        record l_tracer t1 (now_ns ()));
  }

(* ---- Pipeline ------------------------------------------------------------------ *)

let run_pipeline cfg kind ~sink src =
  let idle_timeout = Hilti_types.Interval_ns.of_msecs cfg.idle_ms in
  match kind with
  | Dns_kind kind when cfg.sharded ->
      (* The parser was built during set-up; the single worker uses it. *)
      Driver.run_dns_sharded_src ~shards:1 ~mk_kind:(fun _ -> kind) ~idle_timeout
        ~sink src
  | Dns_kind kind -> Driver.run_dns_src ~kind ~sink ~idle_timeout src
  | Http_kind kind -> Driver.run_http_src ~kind ~sink ~idle_timeout src

(* A fixed host-speed probe: an ALU loop, a random walk over 8 MiB and
   minor-heap churn, so that it slows down with the host's CPU, cache and
   memory contention as the pipeline does.  Reported beside every run so
   that host drift can be told apart from program changes; it never
   rescales a metric.  It runs after the measurement, so its heap use
   cannot show in the run's figures. *)
let probe_ms () =
  let t0 = now_ns () in
  let x = ref 1 in
  for i = 1 to 4_000_000 do
    x := ((!x * 25214903917) + i) land 0xffff_ffff_ffff
  done;
  let mask = (1 lsl 20) - 1 in
  let a = Array.init (mask + 1) (fun i -> (i * 7919) land mask) in
  for i = 1 to 200_000 do
    x := (a.(!x land mask) + i) land mask
  done;
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (List.init 10_000 Fun.id))
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (now_ns () - t0) /. 1e6

let alloc_words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
let word_bytes = float_of_int (Sys.word_size / 8)

(* ---- JSON output ------------------------------------------------------------------ *)

let json_fields fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let jf x = Printf.sprintf "%.17g" x
let ji = string_of_int

(* ---- Isolated passes (traced run) ------------------------------------------------- *)

(* Time one isolated pass; returns (ns, allocated bytes).  Each pass
   starts from a compacted heap, so none pays for the garbage of the run
   or pass before it. *)
let measure_once f =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  f ();
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  (t1 - t0, (alloc_words g1 -. alloc_words g0) *. word_bytes)

let passes = 3
let median_ns l = List.nth (List.sort compare l) (List.length l / 2)

(* [passes] passes: the median time and the first pass's allocation. *)
let measure f =
  let runs = List.init passes (fun _ -> measure_once f) in
  (median_ns (List.map fst runs), snd (List.hd runs))

let array_src packets =
  let i = ref 0 in
  Iosrc.create ~kind:"array" (fun () ->
      if !i < Array.length packets then begin
        let p = packets.(!i) in
        incr i;
        Some p
      end
      else None)

(* Decode and parse costs apart from the pipeline: DNS through the
   driver's own slice and view-parse entry points, HTTP through
   run_http_src into the null sink once per parser kind (its parsers are
   driven by reassembly, so that parse cost includes flow tracking and
   reassembly).  Returns the packet count and the (ns, allocated bytes)
   of decode, of the standard parser and of the BinPAC++ parser. *)
let isolated_passes cfg pcap =
  let packets = Array.of_list (Iosrc.to_list (Pcap.iosrc_of_file pcap)) in
  let n = Array.length packets in
  match cfg.proto with
  | `Dns ->
      let slices = Array.make n None in
      let decode =
        measure (fun () ->
            for i = 0 to n - 1 do
              slices.(i) <- Driver.dns_slice packets.(i)
            done)
      in
      let parse kind =
        let scratch = Dns_std.make_scratch () in
        measure (fun () ->
            Array.iter
              (function
                | Some (_, v) ->
                    ignore (Sys.opaque_identity (Driver.dns_parse_view ~scratch kind v))
                | None -> ())
              slices)
      in
      let std = parse Driver.Dns_std in
      (n, decode, std, parse (Driver.Dns_pac (Dns_pac.load ())))
  | `Http ->
      let ((decode_ns, decode_alloc) as decode) =
        measure (fun () ->
            Array.iter
              (fun p ->
                ignore
                  (Sys.opaque_identity
                     (Hilti_net.Packet.decode_opt ~ts:p.Iosrc.ts p.Iosrc.data)))
              packets)
      in
      let idle_timeout = Hilti_types.Interval_ns.of_msecs cfg.idle_ms in
      let parse kind =
        let ns, alloc =
          measure (fun () ->
              ignore
                (Driver.run_http_src ~kind ~sink:Events.null_sink ~idle_timeout
                   (array_src packets)))
        in
        (ns - decode_ns, alloc -. decode_alloc)
      in
      let std = parse Driver.Http_std in
      (n, decode, std, parse (Driver.Http_pac (Http_pac.load ())))

(* Replay the captured event stream into a freshly loaded engine; rows
   are discarded as they accumulate, like the pipeline's writer. *)
let replay mode scripts names events =
  let logger, engine = load_engine mode scripts in
  let ss = List.map (Bro_log.stream logger) names in
  let n = ref 0 in
  fst
    (measure_once (fun () ->
         List.iter
           (function
             | Ev (name, args) ->
                 Bro_engine.dispatch engine name args;
                 incr n;
                 if !n land 1023 = 0 then
                   List.iter (fun (s : Bro_log.stream) -> s.Bro_log.rows <- []) ss
             | Time ts -> Bro_engine.set_network_time engine ts)
           events))

(* ---- One measured run ------------------------------------------------------------ *)

let run ~name ~pcap ~logs ~traced =
  let cfg = config_of_name name in
  let t0 = now_ns () in
  let scripts = Bro_scripts.parse_all () in
  let logger, engine = load_engine (mode_of cfg.compiled) scripts in
  let kind = load_kind cfg.proto cfg.parser in
  let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
  let writer = open_writer logger logs (streams cfg.proto) in
  let stamps = { st = Array.make 1024 0; n = 0 } in
  let in_bytes = ref 0 in
  let capture = ref [] in
  if traced then Gc_pauses.start_ ();
  let src =
    wrap_source ~traced ~writer ~stamps ~in_bytes (Pcap.iosrc_of_file pcap)
  in
  let sink =
    let base = Events.engine_sink engine in
    if traced then traced_sink base capture else base
  in
  let cyc0 = Bro_engine.cycles engine in
  let g0 = Gc.quick_stat () in
  let tms0 = Unix.times () in
  let w0 = now_ns () in
  last_end := w0;
  let stats = run_pipeline cfg kind ~sink src in
  let w1 = now_ns () in
  let tms1 = Unix.times () in
  let g1 = Gc.quick_stat () in
  let cyc1 = Bro_engine.cycles engine in
  if traced then Gc_pauses.poll ();
  drain writer;
  close_writer writer;
  let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
  let windows =
    List.init (max 0 (stamps.n - 1)) (fun i -> stamps.st.(i + 1) - stamps.st.(i))
  in
  let base =
    [ ("config", Printf.sprintf "%S" name);
      ("packets", ji stats.Driver.packets);
      ("connections", ji stats.Driver.connections);
      ("evicted", ji stats.Driver.evicted);
      ("events", ji stats.Driver.events);
      ("wall_ns", ji (w1 - w0));
      ("cpu_s", jf (cpu tms1 -. cpu tms0));
      ("setup_s", jf setup_s);
      ("heap_peak_mib",
        jf (float_of_int g1.Gc.top_heap_words *. word_bytes /. 1048576.));
      ("alloc_bytes", jf ((alloc_words g1 -. alloc_words g0) *. word_bytes));
      ("minor_collections", ji (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_collections", ji (g1.Gc.major_collections - g0.Gc.major_collections));
      ("cycles", Int64.to_string (Int64.sub cyc1 cyc0));
      ("log_rows", ji writer.rows);
      ("log_bytes", ji writer.bytes);
      ("window_ns", "[" ^ String.concat ", " (List.map ji windows) ^ "]") ]
  in
  let trace =
    if not traced then []
    else begin
      let events = List.rev !capture in
      capture := [];
      let replayed =
        List.length (List.filter (function Ev _ -> true | Time _ -> false) events)
      in
      let names = streams cfg.proto in
      (* Alternate the two modes, so host drift biases neither median. *)
      let both =
        List.init passes (fun _ ->
            let i = replay Bro_engine.Interpreted scripts names events in
            (i, replay Bro_engine.Compiled scripts names events))
      in
      let interp_ns = median_ns (List.map fst both) in
      let compiled_ns = median_ns (List.map snd both) in
      let n, (decode_ns, _), (std_ns, std_alloc), (pac_ns, pac_alloc) =
        isolated_passes cfg pcap
      in
      let parse_ns, parse_alloc =
        match cfg.parser with Pac -> (pac_ns, pac_alloc) | Std -> (std_ns, std_alloc)
      in
      let spans =
        Array.to_list
          (Array.mapi
             (fun i l ->
               (l, json_fields [ ("ns", ji span_ns.(i)); ("count", ji span_count.(i)) ]))
             layer_names)
      in
      [ ( "trace",
          json_fields
            [ ("spans", json_fields spans);
              ("overlaps", ji !overlaps);
              ("foreign_domain_spans", ji !foreign);
              ("input_bytes", ji !in_bytes);
              ("script_alloc_bytes", jf (script_alloc.(0) *. word_bytes));
              ("gc_pause_ns_total", ji !Gc_pauses.total);
              ("gc_pause_ns_max", ji !Gc_pauses.max_);
              ("iso_packets", ji n);
              ("decode_ns", ji decode_ns);
              ("parse_ns", ji parse_ns);
              ("parse_std_ns", ji std_ns);
              ("parse_pac_ns", ji pac_ns);
              ("parse_alloc_bytes", jf parse_alloc);
              ("replay_events", ji replayed);
              ("replay_interp_ns", ji interp_ns);
              ("replay_compiled_ns", ji compiled_ns) ] ) ]
    end
  in
  let probe = [ ("probe_ms", jf (probe_ms ())) ] in
  print_endline (json_fields (base @ trace @ probe))

(* ---- Command line ---------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | "--trace" :: rest -> opts (("trace", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("bad argument " ^ a)
  in
  let usage () =
    prerr_endline
      "usage: pbench gen --proto dns|http --seed N --size N --out FILE\n\
      \       pbench run --config NAME --pcap FILE --logs DIR [--trace]";
    exit 2
  in
  match args with
  | "gen" :: rest ->
      let o = opts [] rest in
      let get k = try List.assoc k o with Not_found -> usage () in
      let proto =
        match get "proto" with "dns" -> `Dns | "http" -> `Http | _ -> usage ()
      in
      gen ~proto ~seed:(int_of_string (get "seed")) ~size:(int_of_string (get "size"))
        ~out:(get "out")
  | "run" :: rest ->
      let o = opts [] rest in
      let get k = try List.assoc k o with Not_found -> usage () in
      run ~name:(get "config") ~pcap:(get "pcap") ~logs:(get "logs")
        ~traced:(List.mem_assoc "trace" o)
  | _ -> usage ()
