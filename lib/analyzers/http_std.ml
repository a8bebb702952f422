(** The "standard" HTTP protocol parser: hand-written, maintaining explicit
    per-session state machines that record where parsing stopped — the
    traditional implementation style the paper contrasts with HILTI's
    transparent fiber-based incremental parsers (§3.2, §6.4).  Plays the
    role of Bro's manually written C++ HTTP analyzer as the comparison
    baseline for the BinPAC++ parser.

    Known (intended) semantic difference, mirroring §6.4: for
    "206 Partial Content" responses this parser does not extract body
    metadata (MIME type, length, hash), while the BinPAC++ version does —
    the paper's main source of http.log/files.log disagreement. *)

type headers = (string * string) list

(* [Fixed] and [Chunk_data] carry the body bytes still to come. *)
type body_mode =
  | No_body
  | Fixed of int
  | Chunk_size
  | Chunk_data of int
  | Chunk_sep of int   (** CRLF after a chunk; remaining = next state's info *)
  | Trailer
  | Until_close

type phase =
  | Start_line
  | In_headers
  | In_body of body_mode
  | Failed

type t = {
  is_request : bool;
  on_request : Events.http_request -> unit;
  on_reply : Events.http_reply -> unit;
  buf : Hilti_types.Hbytes.t;  (** stream data; consumed prefix trimmed away *)
  mutable pos : int;           (** absolute offset of first unconsumed byte *)
  mutable phase : phase;
  (* current-message scratch *)
  mutable line1 : string list; (** split start line *)
  mutable headers : headers;
  mutable body_len : int;      (** body bytes consumed so far *)
  mutable hash_body : bool;    (** this message's body goes into [sha] *)
  sha : Mini_bro.Sha1.t;       (** running hash of the body in flight *)
  mutable messages : int;
}

let create ~is_request ~on_request ~on_reply =
  {
    is_request;
    on_request;
    on_reply;
    buf = Hilti_types.Hbytes.create ();
    pos = 0;
    phase = Start_line;
    line1 = [];
    headers = [];
    body_len = 0;
    hash_body = false;
    sha = Mini_bro.Sha1.create ();
    messages = 0;
  }

(** Stream bytes currently held.  Body bytes are hashed and dropped as
    they arrive and consumed input is trimmed after every drain, so this
    stays bounded by one start line or header block, never by a body. *)
let retained t = Hilti_types.Hbytes.length t.buf

let header t name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name t.headers

let reset_message t =
  t.line1 <- [];
  t.headers <- [];
  t.body_len <- 0;
  t.phase <- Start_line

let cursor t = Hilti_types.Hbytes.iter_at t.buf t.pos

(* Consume up to the next CRLF (or LF); None if no full line buffered.
   The CR strip happens on the view, so the line text is copied exactly
   once. *)
let take_line t =
  let it = cursor t in
  match Hilti_types.Hbytes.find it "\n" with
  | None -> None
  | Some nl ->
      let v = Hilti_types.Hbytes.sub_view it nl in
      let n = Hilti_types.Hbytes.view_length v in
      let n =
        if n > 0 && Hilti_types.Hbytes.get_u8 v (n - 1) = Char.code '\r' then
          n - 1
        else n
      in
      let line = Hilti_types.Hbytes.view_sub_string v 0 n in
      t.pos <- Hilti_types.Hbytes.offset nl + 1;
      Some line

(* Consume up to [n] buffered body bytes in place: hash them if this
   message logs a hash, count them, and return how many were taken.  The
   bytes are never copied; [trim] releases them after the drain. *)
let take_body t n =
  let it = cursor t in
  let k = Stdlib.min n (Hilti_types.Hbytes.available it) in
  if k > 0 then begin
    if t.hash_body then
      Hilti_types.Hbytes.view_consume
        (Hilti_types.Hbytes.sub_view it (Hilti_types.Hbytes.advance it k))
        (Mini_bro.Sha1.feed t.sha);
    t.body_len <- t.body_len + k;
    t.pos <- t.pos + k
  end;
  k

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let parse_version v =
  (* "HTTP/1.1" -> "1.1" *)
  match String.index_opt v '/' with
  | Some i -> String.sub v (i + 1) (String.length v - i - 1)
  | None -> v

let finish_request t =
  t.messages <- t.messages + 1;
  (match t.line1 with
  | meth :: uri :: version :: _ ->
      t.on_request
        {
          Events.method_ = meth;
          uri;
          version = parse_version version;
          host = Option.value ~default:"" (header t "host");
        }
  | _ -> ());
  reset_message t

let reply_code code = int_of_string_opt code |> Option.value ~default:0

let finish_reply t =
  t.messages <- t.messages + 1;
  (match t.line1 with
  | version :: code :: rest ->
      let code = reply_code code in
      let reply =
        if code = 206 then
          (* The standard parser skips body metadata on Partial Content. *)
          {
            Events.r_version = parse_version version;
            code;
            reason = String.concat " " rest;
            mime = "-";
            body_len = 0;
            body_sha1 = "";
          }
        else
          {
            Events.r_version = parse_version version;
            code;
            reason = String.concat " " rest;
            mime = Option.value ~default:"-" (header t "content-type");
            body_len = t.body_len;
            body_sha1 =
              (if t.body_len = 0 then "" else Mini_bro.Sha1.finish t.sha);
          }
      in
      t.on_reply reply
  | _ -> ());
  reset_message t

let finish_message t = if t.is_request then finish_request t else finish_reply t

(* Decide how the body arrives once headers are complete; [None] for a
   negative Content-Length, which no message can have. *)
let body_mode_of t =
  match header t "transfer-encoding" with
  | Some te when String.lowercase_ascii (String.trim te) = "chunked" ->
      Some Chunk_size
  | _ -> (
      match header t "content-length" with
      | Some cl -> (
          match int_of_string_opt (String.trim cl) with
          | Some 0 | None -> Some No_body
          | Some n when n < 0 -> None
          | Some n -> Some (Fixed n))
      | None ->
          if t.is_request then Some No_body
          else
            (* A reply with neither length nor chunking: body runs until
               close if the server said so, else there is no body. *)
            let close =
              match header t "connection" with
              | Some c -> String.lowercase_ascii (String.trim c) = "close"
              | None -> false
            in
            Some (if close then Until_close else No_body))

(* Only replies log a body hash, and the standard parser skips body
   metadata on 206 Partial Content, so those bodies are not hashed. *)
let hashes_body t =
  (not t.is_request)
  && match t.line1 with _ :: code :: _ -> reply_code code <> 206 | _ -> false

(* A chunk-size line: 1*HEXDIG, optional blanks, then either the end or a
   ';' chunk extension — the grammar's [len_hex] token.  [None] on
   anything else, or on a size too large for an int. *)
let chunk_size line =
  let n = String.length line in
  let rec digits i acc =
    let d =
      if i >= n then -1
      else
        match line.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> -1
    in
    if d >= 0 && acc <= max_int lsr 4 then digits (i + 1) ((acc lsl 4) lor d)
    else (i, acc)
  in
  let rec rest i =
    i >= n
    || match line.[i] with ' ' | '\t' -> rest (i + 1) | ';' -> true | _ -> false
  in
  match digits 0 0 with
  | 0, _ -> None
  | i, size -> if rest i then Some size else None

(* One step of the state machine; false = need more data. *)
let rec step t : bool =
  match t.phase with
  | Failed -> false
  | Start_line -> (
      match take_line t with
      | Some "" -> true  (* tolerate stray blank lines between messages *)
      | Some line ->
          let parts = split_ws line in
          let plausible =
            match (t.is_request, parts) with
            | true, _ :: _ :: v :: _ -> String.length v >= 5 && String.sub v 0 5 = "HTTP/"
            | false, v :: _ :: _ -> String.length v >= 5 && String.sub v 0 5 = "HTTP/"
            | _ -> false
          in
          if plausible then begin
            t.line1 <- parts;
            t.phase <- In_headers;
            true
          end
          else begin
            (* Not HTTP: this direction carries crud; stop parsing. *)
            t.phase <- Failed;
            false
          end
      | None -> false)
  | In_headers -> (
      match take_line t with
      | Some "" ->
          (match body_mode_of t with
          | Some No_body -> finish_message t
          | Some mode ->
              t.hash_body <- hashes_body t;
              t.phase <- In_body mode
          | None -> t.phase <- Failed);
          true
      | Some line -> (
          match String.index_opt line ':' with
          | Some i ->
              let name = String.lowercase_ascii (String.sub line 0 i) in
              let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
              t.headers <- t.headers @ [ (name, value) ];
              true
          | None -> true (* ignore malformed header line, as Bro does *))
      | None -> false)
  | In_body No_body ->
      finish_message t;
      true
  | In_body (Fixed n) -> (
      match n - take_body t n with
      | 0 -> finish_message t; true
      | left -> t.phase <- In_body (Fixed left); false)
  | In_body Chunk_size -> (
      match take_line t with
      | Some line -> (
          match chunk_size line with
          | Some 0 -> t.phase <- In_body Trailer; true
          | Some n -> t.phase <- In_body (Chunk_data n); true
          | None -> t.phase <- Failed; false)
      | None -> false)
  | In_body (Chunk_data n) -> (
      match n - take_body t n with
      | 0 -> t.phase <- In_body (Chunk_sep 0); true
      | left -> t.phase <- In_body (Chunk_data left); false)
  | In_body (Chunk_sep _) -> (
      match take_line t with
      | Some _ -> t.phase <- In_body Chunk_size; true
      | None -> false)
  | In_body Trailer -> (
      (* Consume trailer lines up to the final empty line. *)
      match take_line t with
      | Some "" -> finish_message t; true
      | Some _ -> true
      | None -> false)
  | In_body Until_close ->
      (* The body runs to EOF: take what is here and wait for more. *)
      ignore (take_body t max_int);
      false

and drain t = if step t then drain t

(* Drop consumed input so retention is bounded by the message in flight. *)
let trim t = Hilti_types.Hbytes.trim t.buf (cursor t)

(** Feed reassembled stream data. *)
let feed t data =
  if t.phase <> Failed then begin
    Hilti_types.Hbytes.append t.buf data;
    drain t;
    trim t
  end

(** The stream is over (FIN/RST/trace end). *)
let eof t =
  (match t.phase with
  | In_body Until_close ->
      drain t;
      finish_message t
  | _ -> drain t);
  trim t

let messages t = t.messages

(** The direction hit non-HTTP bytes and parsing stopped. *)
let failed t = t.phase = Failed
