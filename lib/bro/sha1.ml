(** SHA-1 (RFC 3174), used by the file-analysis script for files.log body
    hashes, matching Bro's files.log [sha1] column.

    A streaming context: [feed] it a message in any number of pieces and
    [finish] returns the hex digest of their concatenation.  Words are
    native ints kept to 32 bits with [land 0xFFFFFFFF]; the 80-word
    schedule and the partial-block buffer live in the context, so [feed]
    allocates nothing and never copies whole blocks of input. *)

type t = {
  w : int array;        (* the 80-word message schedule *)
  block : Bytes.t;      (* the pending partial block *)
  mutable fill : int;   (* bytes pending in [block], 0..63 *)
  mutable total : int;  (* message length so far, in bytes *)
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
}

let mask = 0xFFFFFFFF

let reset t =
  t.fill <- 0;
  t.total <- 0;
  t.h0 <- 0x67452301;
  t.h1 <- 0xEFCDAB89;
  t.h2 <- 0x98BADCFE;
  t.h3 <- 0x10325476;
  t.h4 <- 0xC3D2E1F0

let create () =
  let t =
    { w = Array.make 80 0; block = Bytes.create 64; fill = 0; total = 0;
      h0 = 0; h1 = 0; h2 = 0; h3 = 0; h4 = 0 }
  in
  reset t;
  t

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* [rotl x 5] without the mask, for sums that are masked as a whole. *)
let[@inline] rot5 x = (x lsl 5) lor (x lsr 27)

(* The round function and constant of each 20-round stage [s]. *)
let[@inline] f s b c d =
  match s with
  | 0 -> b land c lor (lnot b land d)
  | 2 -> b land c lor (b land d) lor (c land d)
  | _ -> b lxor c lxor d

let stage_k = [| 0x5A827999; 0x6ED9EBA1; 0x8F1BBCDC; 0xCA62C1D6 |]

(* Compress the 64-byte block at [src.[off]] into the chaining state. *)
let compress t src off =
  let w = t.w in
  for i = 0 to 15 do
    let p = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get src p) lsl 24)
      lor (Char.code (Bytes.unsafe_get src (p + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get src (p + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get src (p + 3)))
  done;
  for i = 16 to 79 do
    Array.unsafe_set w i
      (rotl
         (Array.unsafe_get w (i - 3)
         lxor Array.unsafe_get w (i - 8)
         lxor Array.unsafe_get w (i - 14)
         lxor Array.unsafe_get w (i - 16))
         1)
  done;
  (* Each round is written in place: the new [a] lands in [e]'s variable
     and the variables' roles rotate, so five rounds bring them back and
     no register moves are needed.  The rounds are written out, not a
     shared closure, so that [a]..[e] stay unboxed locals. *)
  let a = ref t.h0 and b = ref t.h1 and c = ref t.h2 and d = ref t.h3
  and e = ref t.h4 in
  let i = ref 0 in
  while !i < 80 do
    let j = !i in
    let s = j / 20 in
    let k = Array.unsafe_get stage_k s in
    e := (!e + rot5 !a + f s !b !c !d + k + Array.unsafe_get w j) land mask;
    b := rotl !b 30;
    d := (!d + rot5 !e + f s !a !b !c + k + Array.unsafe_get w (j + 1)) land mask;
    a := rotl !a 30;
    c := (!c + rot5 !d + f s !e !a !b + k + Array.unsafe_get w (j + 2)) land mask;
    e := rotl !e 30;
    b := (!b + rot5 !c + f s !d !e !a + k + Array.unsafe_get w (j + 3)) land mask;
    d := rotl !d 30;
    a := (!a + rot5 !b + f s !c !d !e + k + Array.unsafe_get w (j + 4)) land mask;
    c := rotl !c 30;
    i := j + 5
  done;
  t.h0 <- (t.h0 + !a) land mask;
  t.h1 <- (t.h1 + !b) land mask;
  t.h2 <- (t.h2 + !c) land mask;
  t.h3 <- (t.h3 + !d) land mask;
  t.h4 <- (t.h4 + !e) land mask

(** Add [len] bytes of [src] from [off] to the message.  [src] is only
    read, and not retained past the call. *)
let feed t src off len =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Sha1.feed";
  t.total <- t.total + len;
  let off = ref off and len = ref len in
  if t.fill > 0 then begin
    let n = Stdlib.min !len (64 - t.fill) in
    Bytes.blit src !off t.block t.fill n;
    t.fill <- t.fill + n;
    off := !off + n;
    len := !len - n;
    if t.fill = 64 then begin
      compress t t.block 0;
      t.fill <- 0
    end
  end;
  while !len >= 64 do
    compress t src !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !off t.block 0 !len;
    t.fill <- !len
  end

let hex_digits = "0123456789abcdef"

(** Pad, compress the last block(s) and return the 40-character lowercase
    hex digest.  The context is reset and can hash the next message. *)
let finish t =
  let bits = t.total * 8 in
  Bytes.set t.block t.fill '\x80';
  if t.fill >= 56 then begin
    Bytes.fill t.block (t.fill + 1) (63 - t.fill) '\000';
    compress t t.block 0;
    Bytes.fill t.block 0 56 '\000'
  end
  else Bytes.fill t.block (t.fill + 1) (55 - t.fill) '\000';
  for i = 0 to 7 do
    Bytes.set t.block (63 - i) (Char.unsafe_chr ((bits lsr (8 * i)) land 0xff))
  done;
  compress t t.block 0;
  let out = Bytes.create 40 in
  let put j h =
    for i = 0 to 7 do
      Bytes.set out ((8 * j) + i) hex_digits.[(h lsr (28 - (4 * i))) land 0xf]
    done
  in
  put 0 t.h0; put 1 t.h1; put 2 t.h2; put 3 t.h3; put 4 t.h4;
  reset t;
  Bytes.unsafe_to_string out

(** SHA-1 of a whole string, as 40 lowercase hex characters. *)
let digest (msg : string) : string =
  let t = create () in
  feed t (Bytes.unsafe_of_string msg) 0 (String.length msg);
  finish t
