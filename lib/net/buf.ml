(* Growable byte buffer for the wire hot path.

   [Stdlib.Buffer] boxes every [add_int64_be] (an [Int64.t] allocation
   per field) and [Buffer.contents] copies the accumulated bytes, so a
   server encoding millions of stamps per second pays minor-heap words
   on every one.  This buffer writes integers byte-at-a-time straight
   into a [Bytes.t] — no boxing, no intermediate string — and doubles as
   the connection's pending-output queue: [consume] advances past bytes
   the socket accepted, compacting lazily, so a partial [write(2)] under
   backpressure just leaves the tail for the next round.

   Steady state (capacity already grown) performs zero minor-heap
   allocation per appended frame; E19's codec microbench pins that. *)

type t = {
  mutable b : Bytes.t;
  mutable off : int;  (* first pending byte *)
  mutable len : int;  (* end of valid bytes; append position *)
}

let create ?(cap = 8192) () =
  { b = Bytes.create (max cap 16); off = 0; len = 0 }

let length t = t.len - t.off

let is_empty t = t.len = t.off

let clear t =
  t.off <- 0;
  t.len <- 0

let bytes t = t.b

let offset t = t.off

(* Make room to append [need] bytes: compact the consumed prefix first,
   grow (amortized doubling) only when compaction isn't enough. *)
let ensure t need =
  let cap = Bytes.length t.b in
  if t.len + need > cap then begin
    let live = t.len - t.off in
    if t.off > 0 then begin
      Bytes.blit t.b t.off t.b 0 live;
      t.off <- 0;
      t.len <- live
    end;
    if live + need > cap then begin
      let cap' = max (live + need) (cap * 2) in
      let nb = Bytes.create cap' in
      Bytes.blit t.b 0 nb 0 live;
      t.b <- nb
    end
  end

let reserve t need =
  ensure t need;
  t.len

let advance t n = t.len <- t.len + n

let consume t n =
  t.off <- t.off + n;
  if t.off >= t.len then begin
    t.off <- 0;
    t.len <- 0
  end

let put_u8 t v =
  ensure t 1;
  Bytes.unsafe_set t.b t.len (Char.unsafe_chr (v land 0xff));
  t.len <- t.len + 1

let put_u32_be t v =
  ensure t 4;
  let b = t.b and p = t.len in
  Bytes.unsafe_set b p (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (v land 0xff));
  t.len <- p + 4

(* Two's-complement 64-bit big-endian of an OCaml int (sign-extended),
   byte stores only — matches [Buffer.add_int64_be (Int64.of_int v)]
   without materializing the [Int64.t]. *)
(* [pos] counts from the first pending byte, not from the start of the
   storage: an append between taking the position and patching it may
   compact the consumed prefix away, which moves every pending byte but
   keeps its distance from [off]. *)
let patch_u32_be t pos v =
  if pos < 0 || pos + 4 > t.len - t.off then
    invalid_arg "Buf.patch_u32_be: position outside the pending bytes";
  let b = t.b and p = t.off + pos in
  Bytes.unsafe_set b p (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (v land 0xff))

let put_i64_be t v =
  ensure t 8;
  let b = t.b and p = t.len in
  Bytes.unsafe_set b p (Char.unsafe_chr ((v asr 56) land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (p + 4) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (p + 5) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (p + 6) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (p + 7) (Char.unsafe_chr (v land 0xff));
  t.len <- p + 8

(* Unsigned LEB128 of a non-negative int: 7 value bits per byte, high
   bit = continuation.  At most 9 bytes for OCaml's 63-bit ints. *)
let varint_size v =
  if v < 0 then invalid_arg "Buf.varint_size: negative";
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let put_varint t v =
  if v < 0 then invalid_arg "Buf.put_varint: negative";
  ensure t 9;
  let b = t.b in
  let p = ref t.len and v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr p;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !v);
  t.len <- !p + 1

let put_string t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.b t.len n;
  t.len <- t.len + n

let contents t = Bytes.sub_string t.b t.off (t.len - t.off)
