(* The analyzer layer in isolation: the standard HTTP state machine, the
   standard DNS decoder, and the event parity between standard and
   BinPAC++ analyzers on crafted inputs. *)

open Hilti_analyzers

(* ---- Http_std: the manual state machine -------------------------------------- *)

let collect_requests feeds =
  let got = ref [] in
  let p =
    Http_std.create ~is_request:true
      ~on_request:(fun r -> got := r :: !got)
      ~on_reply:(fun _ -> ())
  in
  List.iter (Http_std.feed p) feeds;
  Http_std.eof p;
  List.rev !got

let collect_replies feeds =
  let got = ref [] in
  let p =
    Http_std.create ~is_request:false
      ~on_request:(fun _ -> ())
      ~on_reply:(fun r -> got := r :: !got)
  in
  List.iter (Http_std.feed p) feeds;
  Http_std.eof p;
  List.rev !got

let test_http_std_request () =
  match collect_requests [ "GET /x HTTP/1.1\r\nHost: h.example\r\n\r\n" ] with
  | [ r ] ->
      Alcotest.(check string) "method" "GET" r.Events.method_;
      Alcotest.(check string) "uri" "/x" r.Events.uri;
      Alcotest.(check string) "version" "1.1" r.Events.version;
      Alcotest.(check string) "host" "h.example" r.Events.host
  | rs -> Alcotest.failf "%d requests" (List.length rs)

let test_http_std_split_across_feeds () =
  (* The state machine resumes mid-header, mid-body, everywhere. *)
  let msg = "POST /p HTTP/1.1\r\nContent-Length: 5\r\nHost: h\r\n\r\nhello" in
  let feeds = List.init (String.length msg) (fun i -> String.make 1 msg.[i]) in
  match collect_requests feeds with
  | [ r ] -> Alcotest.(check string) "method" "POST" r.Events.method_
  | rs -> Alcotest.failf "%d requests" (List.length rs)

let test_http_std_pipelined () =
  let msgs =
    "GET /1 HTTP/1.1\r\nHost: a\r\n\r\nGET /2 HTTP/1.1\r\nHost: b\r\n\r\n"
  in
  match collect_requests [ msgs ] with
  | [ r1; r2 ] ->
      Alcotest.(check string) "first" "/1" r1.Events.uri;
      Alcotest.(check string) "second" "/2" r2.Events.uri
  | rs -> Alcotest.failf "%d requests" (List.length rs)

let test_http_std_chunked_reply () =
  let msg =
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Type: a/b\r\n\r\n\
     3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
  in
  match collect_replies [ msg ] with
  | [ r ] ->
      Alcotest.(check int) "code" 200 r.Events.code;
      Alcotest.(check int) "body len" 5 r.Events.body_len;
      Alcotest.(check string) "sha of abcde" (Mini_bro.Sha1.digest "abcde") r.Events.body_sha1
  | rs -> Alcotest.failf "%d replies" (List.length rs)

let test_http_std_until_close () =
  let msg = "HTTP/1.0 200 OK\r\nConnection: close\r\n\r\neverything until eof" in
  match collect_replies [ msg ] with
  | [ r ] -> Alcotest.(check int) "body len" 20 r.Events.body_len
  | rs -> Alcotest.failf "%d replies" (List.length rs)

let test_http_std_rejects_junk () =
  Alcotest.(check int) "no events from junk" 0
    (List.length (collect_requests [ "\x00\x01\x02 this is not HTTP\r\n\r\n" ]))

let test_http_std_206_divergence () =
  let msg = "HTTP/1.1 206 Partial Content\r\nContent-Type: t/x\r\nContent-Length: 3\r\n\r\nabc" in
  match collect_replies [ msg ] with
  | [ r ] ->
      Alcotest.(check string) "mime withheld on 206" "-" r.Events.mime;
      Alcotest.(check int) "body metadata withheld" 0 r.Events.body_len
  | rs -> Alcotest.failf "%d replies" (List.length rs)

(* ---- Dns_std ----------------------------------------------------------------------- *)

let test_dns_std_rejects_crud () =
  List.iter
    (fun payload ->
      match Dns_std.parse payload with
      | exception Dns_std.Bad_dns _ -> ()
      | _ -> Alcotest.failf "parsed %d junk bytes" (String.length payload))
    [ ""; "short"; String.make 12 '\xff' ]

let test_dns_std_compression_loop_guard () =
  (* A name that points at itself must fail, not loop forever. *)
  let b = Bytes.make 16 '\x00' in
  Bytes.set_uint16_be b 4 1;  (* qdcount=1 *)
  (* qname at offset 12: pointer to offset 12 *)
  Bytes.set b 12 '\xc0';
  Bytes.set b 13 '\x0c';
  match Dns_std.parse (Bytes.to_string b) with
  | exception Dns_std.Bad_dns msg ->
      Alcotest.(check bool) "mentions loop" true (Astring_contains.contains msg "loop")
  | _ -> Alcotest.fail "self-pointing name accepted"

(* ---- Event parity between std and pac on crafted sessions --------------------------- *)

let run_http_session_events kind payload_c2s payload_s2c =
  let open Hilti_types in
  let src = Addr.of_string "10.0.0.1" and dst = Addr.of_string "10.0.0.2" in
  let seg ~from_client ~seq ~flags data =
    let sp, dp = if from_client then (5555, 80) else (80, 5555) in
    let s, d = if from_client then (src, dst) else (dst, src) in
    Hilti_net.Packet.encode_tcp ~src:s ~dst:d ~src_port:sp ~dst_port:dp
      ~seq ~ack:0l ~flags data
  in
  let records =
    [ seg ~from_client:true ~seq:0l ~flags:Hilti_net.Tcp.flag_syn "";
      seg ~from_client:false ~seq:0l
        ~flags:(Hilti_net.Tcp.flag_syn lor Hilti_net.Tcp.flag_ack) "";
      seg ~from_client:true ~seq:1l ~flags:Hilti_net.Tcp.flag_ack payload_c2s;
      seg ~from_client:false ~seq:1l ~flags:Hilti_net.Tcp.flag_ack payload_s2c ]
    |> List.mapi (fun i data ->
           { Hilti_net.Pcap.ts = Time_ns.of_secs (1000 + i); orig_len = String.length data; data })
  in
  let events = ref [] in
  let sink =
    { Events.raise_event = (fun name args -> events := (name, List.map Mini_bro.Bro_val.to_string args) :: !events);
      set_time = (fun _ -> ()) }
  in
  ignore (Driver.run_http ~kind ~sink records);
  List.rev !events

let test_event_parity_http () =
  let c2s = "GET /same HTTP/1.1\r\nHost: parity\r\n\r\n" in
  let s2c = "HTTP/1.1 200 OK\r\nContent-Type: x/y\r\nContent-Length: 2\r\n\r\nhi" in
  let std = run_http_session_events Driver.Http_std c2s s2c in
  let pac = run_http_session_events (Driver.Http_pac (Http_pac.load ())) c2s s2c in
  Alcotest.(check bool) "identical event streams" true (std = pac);
  Alcotest.(check bool) "has http_request" true
    (List.exists (fun (n, _) -> n = "http_request") std);
  Alcotest.(check bool) "has http_reply" true
    (List.exists (fun (n, _) -> n = "http_reply") std)

(* Hostile replies: each parser must survive them, raise the same events,
   and raise no reply for the malformed message. *)
let check_hostile_reply_parity name s2c ~replies =
  let c2s = "GET /h HTTP/1.1\r\nHost: hostile\r\n\r\n" in
  let std = run_http_session_events Driver.Http_std c2s s2c in
  let pac = run_http_session_events (Driver.Http_pac (Http_pac.load ())) c2s s2c in
  Alcotest.(check (list (pair string (list string)))) (name ^ ": std = pac") pac std;
  Alcotest.(check int) (name ^ ": replies")
    replies
    (List.length (List.filter (fun (n, _) -> n = "http_reply") std))

let test_negative_content_length () =
  check_hostile_reply_parity "negative length"
    "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nhello" ~replies:0

let test_chunk_size_strict_hex () =
  let chunked size_line data =
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" ^ size_line ^ "\r\n"
    ^ data ^ "\r\n0\r\n\r\n"
  in
  let data = String.make 16 'x' in
  (* OCaml literal syntax is not hex: "1_0" must not read as 16. *)
  check_hostile_reply_parity "underscore" (chunked "1_0" data) ~replies:0;
  check_hostile_reply_parity "0x prefix" (chunked "0x10" data) ~replies:0;
  check_hostile_reply_parity "sign" (chunked "+10" data) ~replies:0;
  check_hostile_reply_parity "no digits" (chunked ";ext" data) ~replies:0;
  (* 1*HEXDIG in either case, with or without a chunk extension. *)
  check_hostile_reply_parity "upper-case hex" (chunked "1A" (String.make 26 'y')) ~replies:1;
  check_hostile_reply_parity "extension" (chunked "10;name=value" data) ~replies:1

(* ---- Http_std: segmentation invariance ---------------------------------------------- *)

(* A reply stream is a list of pieces: protocol text, or body bytes that
   the parser consumes as data (offsets of the latter bound [retained]). *)
type piece = Text of string | Body of string

let reply_pieces st ~kind body =
  let mime = [| "text/html"; "image/png"; "application/octet-stream" |].(Random.State.int st 3) in
  let head code extra =
    Text (Printf.sprintf "HTTP/1.1 %d X\r\nContent-Type: %s\r\n%s\r\n" code mime extra)
  in
  let n = String.length body in
  match kind with
  | `Length -> [ head 200 (Printf.sprintf "Content-Length: %d\r\n" n); Body body ]
  | `Partial -> [ head 206 (Printf.sprintf "Content-Length: %d\r\n" n); Body body ]
  | `Close -> [ head 200 "Connection: close\r\n"; Body body ]
  | `Chunked ->
      let rec chunks off =
        if off >= n then [ Text "0\r\n\r\n" ]
        else
          let k = 1 + Random.State.int st (n - off) in
          Text (Printf.sprintf "%x\r\n" k) :: Body (String.sub body off k) :: Text "\r\n"
          :: chunks (off + k)
      in
      head 200 "Transfer-Encoding: chunked\r\n" :: chunks 0

(* Replies of every body kind, a close-delimited one last, with bodies
   that contain CR/LF bytes; [truncate] instead ends the stream inside a
   Content-Length body, so that message never completes.  Returns the
   pieces and the number of complete replies. *)
let reply_stream st ~truncate =
  let body () =
    let len = [| 0; 1; 55; 64; 65; 1460; 3000 |].(Random.State.int st 7) in
    String.init len (fun _ -> "\r\nab\x00\xff".[Random.State.int st 6])
  in
  let kinds = [ `Length; `Chunked; `Partial; `Length; `Chunked ] in
  let kinds = List.filteri (fun i _ -> i < 1 + Random.State.int st 5) kinds in
  let pieces = List.concat_map (fun kind -> reply_pieces st ~kind (body ())) kinds in
  if truncate then
    let len = 2 + Random.State.int st 2000 in
    let head = Printf.sprintf "HTTP/1.1 200 X\r\nContent-Length: %d\r\n\r\n" len in
    let cut = 1 + Random.State.int st (len - 1) in
    (pieces @ [ Text head; Body (String.make cut 'z') ], List.length kinds)
  else (pieces @ reply_pieces st ~kind:`Close (body ()), List.length kinds + 1)

let reply_fields (r : Events.http_reply) =
  Printf.sprintf "%s %d %s %d %s" r.Events.r_version r.code r.mime r.body_len r.body_sha1

(* Feed the pieces to one reply direction in chunks of [sizes] (cycled);
   returns the replies' checked fields and whether [retained] ever
   exceeded the last chunk while the parser stood inside a body. *)
let feed_in_chunks pieces sizes =
  let stream = String.concat "" (List.map (function Text s | Body s -> s) pieces) in
  let in_body =
    let regions, _ =
      List.fold_left
        (fun (acc, off) p ->
          match p with
          | Text s -> (acc, off + String.length s)
          | Body s -> ((off, off + String.length s) :: acc, off + String.length s))
        ([], 0) pieces
    in
    fun pos -> List.exists (fun (a, b) -> a <= pos && pos <= b) regions
  in
  let got = ref [] in
  let p =
    Http_std.create ~is_request:false ~on_request:(fun _ -> ())
      ~on_reply:(fun r -> got := reply_fields r :: !got)
  in
  let over = ref false in
  let n = String.length stream in
  let rec go off = function
    | _ when off >= n -> ()
    | [] -> go off sizes
    | k :: rest ->
        let k = Stdlib.min k (n - off) in
        Http_std.feed p (String.sub stream off k);
        if in_body (off + k) && Http_std.retained p > k then over := true;
        go (off + k) rest
  in
  go 0 sizes;
  Http_std.eof p;
  (List.rev !got, !over)

let test_http_std_segmentation =
  let gen =
    QCheck.Gen.(
      triple bool int
        (list_size (int_range 1 12)
           (oneof [ int_range 1 3; int_range 1 100; int_range 1 2000 ])))
  in
  let print (truncate, seed, sizes) =
    Printf.sprintf "truncate=%b seed=%d sizes=[%s]" truncate seed
      (String.concat ";" (List.map string_of_int sizes))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"http_std replies survive any segmentation"
       (QCheck.make ~print gen)
       (fun (truncate, seed, sizes) ->
         let st = Random.State.make [| seed |] in
         let pieces, complete = reply_stream st ~truncate in
         let whole, _ = feed_in_chunks pieces [ max_int ] in
         let split, over = feed_in_chunks pieces sizes in
         if split <> whole then QCheck.Test.fail_report "replies differ";
         if over then QCheck.Test.fail_report "retained a body past the last chunk";
         (* Every complete reply is raised; a truncated one is not. *)
         List.length whole = complete))

(* The checked fields themselves, on one stream of every body kind. *)
let test_http_std_streamed_fields () =
  let body = String.init 5000 (fun i -> Char.chr (i land 0xff)) in
  let st = Random.State.make [| 7 |] in
  let pieces =
    List.concat_map
      (fun kind -> reply_pieces st ~kind body)
      [ `Length; `Chunked; `Partial; `Close ]
  in
  let got, _ = feed_in_chunks pieces [ 1; 7; 1460 ] in
  let sha = Mini_bro.Sha1.digest body in
  Alcotest.(check int) "four replies" 4 (List.length got);
  List.iteri
    (fun i fields ->
      let partial = i = 2 in
      match String.split_on_char ' ' fields with
      | [ version; code; mime; len; sha1 ] ->
          Alcotest.(check string) "version" "1.1" version;
          Alcotest.(check string) "code" (if partial then "206" else "200") code;
          Alcotest.(check bool) "mime withheld only on 206" partial (mime = "-");
          Alcotest.(check string) "body_len" (if partial then "0" else "5000") len;
          Alcotest.(check string) "body_sha1" (if partial then "" else sha) sha1
      | _ -> Alcotest.failf "fields %S" fields)
    got

let test_dns_event_parity () =
  let open Hilti_traces.Dns_gen in
  let msg =
    { id = 99; response = true; opcode = 0; rcode = 0; rd = true; ra = true;
      qname = "p.example.org"; qtype = 1;
      answers = [ { rname = "p.example.org"; rtype = 1; ttl = 60; rdata = `A (1, 2, 3, 4) } ];
      authority = [] }
  in
  let wire = encode_message msg in
  let std = Dns_std.to_reply (Dns_std.parse wire) in
  match Dns_pac.parse (Dns_pac.load ()) wire with
  | Dns_pac.Reply pac ->
      Alcotest.(check int) "id" std.Events.r_id pac.Events.r_id;
      Alcotest.(check (list string)) "answers" std.Events.answers pac.Events.answers;
      Alcotest.(check (list int)) "ttls" std.Events.ttls pac.Events.ttls
  | _ -> Alcotest.fail "pac did not parse reply"

let suite =
  [ Alcotest.test_case "http_std request" `Quick test_http_std_request;
    Alcotest.test_case "http_std byte-at-a-time" `Quick test_http_std_split_across_feeds;
    Alcotest.test_case "http_std pipelining" `Quick test_http_std_pipelined;
    Alcotest.test_case "http_std chunked" `Quick test_http_std_chunked_reply;
    Alcotest.test_case "http_std until-close" `Quick test_http_std_until_close;
    Alcotest.test_case "http_std rejects junk" `Quick test_http_std_rejects_junk;
    Alcotest.test_case "http_std 206 divergence (§6.4)" `Quick test_http_std_206_divergence;
    Alcotest.test_case "dns_std rejects crud" `Quick test_dns_std_rejects_crud;
    Alcotest.test_case "dns_std pointer-loop guard" `Quick test_dns_std_compression_loop_guard;
    Alcotest.test_case "HTTP event parity std/pac" `Quick test_event_parity_http;
    Alcotest.test_case "HTTP negative Content-Length std/pac" `Quick test_negative_content_length;
    Alcotest.test_case "HTTP chunk sizes are strict hex std/pac" `Quick test_chunk_size_strict_hex;
    test_http_std_segmentation;
    Alcotest.test_case "http_std streamed body fields" `Quick test_http_std_streamed_fields;
    Alcotest.test_case "DNS event parity std/pac" `Quick test_dns_event_parity ]
