(** Growable byte buffer for the wire hot path.

    Appends integers byte-at-a-time (no [Int64.t] boxing, unlike
    [Stdlib.Buffer]'s [add_int64_be]) and doubles as a connection's
    pending-output queue: [consume] drops bytes the socket accepted, so
    a partial write under backpressure leaves the tail buffered.  Once
    capacity has grown to steady state, appending performs zero
    minor-heap allocation. *)

type t

val create : ?cap:int -> unit -> t

val length : t -> int
(** Pending (unconsumed) bytes. *)

val is_empty : t -> bool

val clear : t -> unit

val bytes : t -> Bytes.t
(** The underlying storage; valid bytes live in
    [\[offset t, offset t + length t)].  Invalidated by any append. *)

val offset : t -> int
(** Index of the first pending byte within [bytes t]. *)

val reserve : t -> int -> int
(** [reserve t n] ensures capacity for [n] more bytes and returns the
    append position; write with [Bytes] stores, then [advance t n].  The
    position is an index into {!bytes}, so any later append may
    invalidate it; use {!patch_u32_be} to fill in a length afterwards. *)

val advance : t -> int -> unit

val consume : t -> int -> unit
(** Drop [n] bytes from the front (they reached the socket). *)

val put_u8 : t -> int -> unit

val put_u32_be : t -> int -> unit

val patch_u32_be : t -> int -> int -> unit
(** [patch_u32_be t pos v] overwrites the four pending bytes starting
    [pos] bytes after the first pending byte with [v], big-endian.  Take
    [pos] as [length t] before appending the placeholder: unlike an index
    into {!bytes}, it stays valid across appends that compact the buffer
    (but not across {!consume}).  Raises [Invalid_argument] when the four
    bytes are not all pending. *)

val put_i64_be : t -> int -> unit
(** 8-byte big-endian two's complement of an OCaml int. *)

val varint_size : int -> int
(** Encoded size (1–9 bytes) of a non-negative int as unsigned LEB128.
    Raises [Invalid_argument] on negatives. *)

val put_varint : t -> int -> unit
(** Unsigned LEB128; raises [Invalid_argument] on negatives. *)

val put_string : t -> string -> unit

val contents : t -> string
(** Copy of the pending bytes (tests and diagnostics). *)
