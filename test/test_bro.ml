(* Mini-Bro (§4 "Bro Script Compiler"): language semantics under both the
   standard interpreter and the HILTI-compiled engine, checked to agree —
   the §6.5 methodology in miniature. *)

open Mini_bro
open Hilti_types

let conn ~uid ~orig ~resp =
  Bro_val.new_record "connection"
    [ ("uid", Bro_val.Vstring uid);
      ("start_time", Bro_val.Vtime (Time_ns.of_secs 1_400_000_000));
      ( "id",
        Bro_val.new_record "conn_id"
          [ ("orig_h", Bro_val.Vaddr (Addr.of_string orig));
            ("orig_p", Bro_val.Vport (Port.tcp 40000));
            ("resp_h", Bro_val.Vaddr (Addr.of_string resp));
            ("resp_p", Bro_val.Vport (Port.tcp 80)) ] ) ]

let with_engine mode script f =
  let engine = Bro_engine.load mode script in
  let out = Buffer.create 64 in
  Bro_engine.set_print_sink engine (fun s -> Buffer.add_string out (s ^ "\n"));
  f engine;
  (engine, Buffer.contents out)

(* Fig. 8: track.bro records responder IPs and prints them at bro_done. *)
let run_track mode =
  let script = Bro_scripts.parse_track () in
  let _, out =
    with_engine mode script (fun engine ->
        List.iter
          (fun (uid, orig, resp) ->
            Bro_engine.dispatch engine "connection_established" [ conn ~uid ~orig ~resp ])
          [ ("C1", "10.0.0.1", "208.80.152.118");
            ("C2", "10.0.0.2", "208.80.152.2");
            ("C3", "10.0.0.3", "208.80.152.3");
            ("C4", "10.0.0.4", "208.80.152.2") ];
        Bro_engine.dispatch engine "bro_done" [])
  in
  List.sort compare
    (List.filter (fun s -> s <> "") (String.split_on_char '\n' out))

let test_track_interp () =
  Alcotest.(check (list string)) "3 servers"
    [ "208.80.152.118"; "208.80.152.2"; "208.80.152.3" ]
    (run_track Bro_engine.Interpreted)

let test_track_compiled () =
  Alcotest.(check (list string)) "same output as Fig. 8(c)"
    [ "208.80.152.118"; "208.80.152.2"; "208.80.152.3" ]
    (run_track Bro_engine.Compiled)

(* fib: both engines compute the same values (§6.5's baseline bench). *)
let test_fib_agreement () =
  let script = Bro_scripts.parse_fib () in
  let fib mode n =
    let engine = Bro_engine.load mode script in
    match Bro_engine.call_function engine "fib" [ Bro_val.Vcount (Int64.of_int n) ] with
    | Bro_val.Vcount v -> Int64.to_int v
    | v -> Alcotest.failf "fib returned %s" (Bro_val.to_string v)
  in
  List.iter
    (fun n ->
      let i = fib Bro_engine.Interpreted n in
      let c = fib Bro_engine.Compiled n in
      Alcotest.(check int) (Printf.sprintf "fib(%d)" n) i c)
    [ 0; 1; 2; 10; 15 ];
  Alcotest.(check int) "fib(15)" 610 (fib Bro_engine.Compiled 15)

(* The scan detector (§7): threshold crossing in both engines. *)
let run_scan mode =
  let script = Bro_scripts.parse_scan () in
  let _, out =
    with_engine mode script (fun engine ->
        for i = 1 to 25 do
          Bro_engine.dispatch engine "connection_established"
            [ conn ~uid:(Printf.sprintf "S%d" i) ~orig:"10.7.7.7"
                ~resp:(Printf.sprintf "10.1.0.%d" i) ]
        done;
        for i = 1 to 5 do
          Bro_engine.dispatch engine "connection_established"
            [ conn ~uid:(Printf.sprintf "T%d" i) ~orig:"10.8.8.8"
                ~resp:(Printf.sprintf "10.2.0.%d" i) ]
        done;
        Bro_engine.dispatch engine "bro_done" [])
  in
  out

let test_scan_detector () =
  let interp = run_scan Bro_engine.Interpreted in
  let compiled = run_scan Bro_engine.Compiled in
  Alcotest.(check string) "both engines flag the scanner" interp compiled;
  Alcotest.(check string) "only 10.7.7.7 flagged" "scanner: 10.7.7.7\n" interp

(* Language details exercised across both engines. *)
let semantics_script =
  Bro_parse.parse
    {|
global counts: table[string] of count &default=0;
global log_lines: vector of string;

function describe(x: count): string {
    if (x % 2 == 0)
        return fmt("%d=even", x);
    return fmt("%d=odd", x);
}

event tick(name: string) {
    counts[name] = counts[name] + 1;
    # short-circuit: guard the index expression
    if (name in counts && counts[name] > 2)
        push(log_lines, fmt("%s:%d %s", name, counts[name], describe(counts[name])));
}

event bro_done() {
    print join(log_lines, ";");
    print |counts|;
}
|}

let run_semantics mode =
  let _, out =
    with_engine mode semantics_script (fun engine ->
        List.iter
          (fun n -> Bro_engine.dispatch engine "tick" [ Bro_val.Vstring n ])
          [ "a"; "a"; "b"; "a"; "b"; "a"; "b" ];
        Bro_engine.dispatch engine "bro_done" [])
  in
  out

let test_semantics_agree () =
  let i = run_semantics Bro_engine.Interpreted in
  let c = run_semantics Bro_engine.Compiled in
  Alcotest.(check string) "engines agree" i c;
  Alcotest.(check string) "expected content" "a:3 3=odd;a:4 4=even;b:3 3=odd\n2\n" i

(* Log framework output via Log::write, both engines. *)
let log_script =
  Bro_parse.parse
    {|
event note(what: string, nbytes: count) {
    Log::write("notes", [$what=what, $nbytes=nbytes, $flag=T]);
}
|}

let test_log_write () =
  let run mode =
    let logger = Bro_log.create () in
    Bro_log.create_stream logger "notes" [ "what"; "nbytes"; "flag" ];
    let engine = Bro_engine.load ~logger mode log_script in
    Bro_engine.dispatch engine "note" [ Bro_val.Vstring "hello"; Bro_val.Vcount 42L ];
    Bro_engine.dispatch engine "note" [ Bro_val.Vstring "x y"; Bro_val.Vcount 0L ];
    Bro_log.rows logger "notes"
  in
  let i = run Bro_engine.Interpreted and c = run Bro_engine.Compiled in
  Alcotest.(check (list string)) "rows agree" i c;
  Alcotest.(check (list string)) "content" [ "hello\t42\tT"; "x y\t0\tT" ] i

let test_sha1 () =
  (* RFC 3174 test vectors. *)
  Alcotest.(check string) "abc" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Sha1.digest "abc");
  Alcotest.(check string) "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    (Sha1.digest "");
  Alcotest.(check string) "alphabet"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "one million a"
    "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.digest (String.make 1_000_000 'a'))

(* 300 messages from a fixed 63-bit LCG: lengths 0..199 byte by byte (every
   padding edge of the first blocks), then 100 multi-block lengths. *)
let seeded_messages () =
  let x = ref 0x5eed in
  let byte () =
    x := (!x * 2685821657736338717) + 1442695040888963407;
    Char.chr ((!x lsr 29) land 0xff)
  in
  List.init 300 (fun i ->
      let len = if i < 200 then i else (i - 200) * 97 in
      String.init len (fun _ -> byte ()))

(* Digest of the 300 digests, pinned on the Int32 implementation this
   kernel replaced: any change to a single output shows here. *)
let test_sha1_pinned () =
  let all = String.concat "" (List.map Sha1.digest (seeded_messages ())) in
  Alcotest.(check string) "digest of digests"
    "1cc113897b5bfdbf9195cba27d0777f7b0ac6257" (Sha1.digest all)

(* Any split of a message into [feed] calls hashes like one call, and a
   finished context hashes the next message afresh.  Lengths 0..300 cross
   the 55/56/63/64/65-byte padding and block edges, and cut points may
   fall anywhere, empty pieces included. *)
let test_sha1_split =
  let gen =
    QCheck.Gen.(
      int_range 0 300 >>= fun len ->
      pair (string_size ~gen:char (return len)) (list_size (int_range 0 8) (int_range 0 len)))
  in
  let print (msg, cuts) =
    Printf.sprintf "len %d, cuts [%s]" (String.length msg)
      (String.concat ";" (List.map string_of_int cuts))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"sha1 feed splits agree with one feed"
       (QCheck.make ~print gen)
       (fun (msg, cuts) ->
         let ctx = Sha1.create () in
         let b = Bytes.of_string msg in
         let last =
           List.fold_left
             (fun from cut ->
               Sha1.feed ctx b from (cut - from);
               cut)
             0 (List.sort compare cuts)
         in
         Sha1.feed ctx b last (Bytes.length b - last);
         let split = Sha1.finish ctx in
         (* [finish] leaves the context ready for the next message. *)
         Sha1.feed ctx b 0 (Bytes.length b);
         split = Sha1.digest msg && Sha1.finish ctx = split))

let suite =
  [ Alcotest.test_case "track.bro interpreted (Fig. 8)" `Quick test_track_interp;
    Alcotest.test_case "track.bro compiled (Fig. 8)" `Quick test_track_compiled;
    Alcotest.test_case "fib agreement" `Quick test_fib_agreement;
    Alcotest.test_case "scan detector (§7)" `Quick test_scan_detector;
    Alcotest.test_case "semantics agreement" `Quick test_semantics_agree;
    Alcotest.test_case "Log::write both engines" `Quick test_log_write;
    Alcotest.test_case "sha1 vectors" `Quick test_sha1;
    Alcotest.test_case "sha1 pinned digest of 300 messages" `Quick test_sha1_pinned;
    test_sha1_split ]
