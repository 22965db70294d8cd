(* Binary wire format for the timestamp service.

   Every frame is [u32 length][payload] with the length big-endian and
   counting the payload only.  A payload is [u8 version][u8 opcode][body].

   Version 1 (PR 9): body integers are 8-byte big-endian, strings are
   length-prefixed with an 8-byte integer, and timestamp values cross
   the wire as [Marshal]ed bytes of the implementation's [result] type.

   Version 2 (this PR): the stamp-bearing bodies ([Stamp], [Range],
   [Get_range], [Compare]) switch to LEB128 varints and carry the
   timestamp as a {!Codec} payload — a fixed per-implementation binary
   layout with a strict bounds-checked parser, so the server never runs
   [Marshal.from_string] on bytes it did not produce.  A typical
   lamport stamp frame drops from ~70 bytes to ~15.  Cold frames
   ([Pong], [Stats_reply], [Err], ...) keep the v1 layout; v2 [Pong]
   appends the negotiated codec name.

   Both versions decode; encoders take [?version] (default 2).  A v2
   client talking to a v1 server gets [Err "bad frame version 2 ..."]
   back and falls back to v1 (see {!Client}); a v2 server answers each
   frame in the version it arrived in, except that it refuses v1
   [Compare] — the one request that would force Marshal-decoding
   untrusted bytes. *)

let version = 2

let min_version = 1

let max_payload = 1 lsl 24  (* 16 MiB: largest payload we will frame *)

let max_lease = 1 lsl 20  (* largest Get_range a server will grant *)

type kind = [ `One_shot | `Long_lived ]

type req =
  | Ping
  | Get_stamp
  | Get_range of int
  | Compare of { a : string; b : string }
      (* timestamp payloads: codec bytes (v2) or Marshal (v1) *)
  | Stats
  | Stop

type wire_stamp = {
  w_pid : int;
  w_call : int;
  w_shard : int;
  w_start_tick : int;
  w_end_tick : int;
  w_ts : string;  (* codec bytes (v2) or marshaled T.result (v1) *)
}

type wire_range = {
  g_pid : int;  (* the anchor operation's identity... *)
  g_call : int;
  g_shard : int;
  g_start_tick : int;  (* ...and its start tick, shared by every mint *)
  g_base : int;  (* first leased end tick *)
  g_count : int;
  g_ts : string;  (* the anchor's timestamp payload *)
}

type server_info = {
  si_impl : string;
  si_kind : kind;
  si_n : int;
  si_shards : int;
  si_backend : string;
  si_codec : string;  (* v2 codec name; "marshal" from a v1 peer *)
}

type shard_stat = { ss_served : int; ss_batches : int; ss_max_batch : int }

type conn_stat = {
  cn_slot : int;
  cn_conns : int;  (* live connections currently mapped to this slot *)
  cn_requests : int;  (* frames handled *)
  cn_stamps : int;  (* stamps issued, leased ticks included *)
  cn_leases : int;
  cn_bytes_in : int;
  cn_bytes_out : int;
}

type resp =
  | Pong of server_info
  | Stamp of wire_stamp
  | Range of wire_range
  | Cmp of bool
  | Stats_reply of { sr_shards : shard_stat list; sr_conns : conn_stat list }
  | Stopping
  | Err of string

type error =
  | Bad_version of int
  | Bad_opcode of int
  | Truncated
  | Oversized of int
  | Malformed of string

let error_to_string = function
  | Bad_version v -> Printf.sprintf "bad frame version %d (want %d)" v version
  | Bad_opcode op -> Printf.sprintf "bad opcode %d" op
  | Truncated -> "truncated frame"
  | Oversized len -> Printf.sprintf "oversized frame (%d > %d)" len max_payload
  | Malformed msg -> Printf.sprintf "malformed frame: %s" msg

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let op_ping = 1
let op_get_stamp = 2
let op_get_range = 3
let op_compare = 4
let op_stats = 5
let op_stop = 6

let op_pong = 65
let op_stamp = 66
let op_range = 67
let op_cmp = 68
let op_stats_reply = 69
let op_stopping = 70
let op_err = 71

(* -------------------------------- encoding ------------------------- *)

(* Fixed-width v1 primitives (also used by v2 cold frames). *)

let add_int b i = Buf.put_i64_be b i

let add_str b s =
  add_int b (String.length s);
  Buf.put_string b s

let add_bool b v = Buf.put_u8 b (if v then 1 else 0)

let add_kind b = function
  | `One_shot -> Buf.put_u8 b 0
  | `Long_lived -> Buf.put_u8 b 1

let add_vstr b s =
  Buf.put_varint b (String.length s);
  Buf.put_string b s

(* Frames are appended as [u32 placeholder][payload], then the length is
   patched in — no intermediate payload string.  The mark is the
   placeholder's distance from the buffer's first pending byte: appending
   the payload may compact the consumed prefix (a partial write left
   [offset > 0]), which moves the placeholder within the storage. *)
let begin_frame b ver opcode =
  let mark = Buf.length b in
  Buf.put_u32_be b 0;
  Buf.put_u8 b ver;
  Buf.put_u8 b opcode;
  mark

let end_frame b mark =
  let len = Buf.length b - mark - 4 in
  if len > max_payload then
    invalid_arg
      (Printf.sprintf "Frame: payload %d exceeds max %d" len max_payload);
  Buf.patch_u32_be b mark len

let check_version v =
  if v <> 1 && v <> 2 then
    invalid_arg (Printf.sprintf "Frame: cannot encode version %d" v)

let write_req ?(version = version) b r =
  check_version version;
  let frame op body =
    let mark = begin_frame b version op in
    body ();
    end_frame b mark
  in
  match r with
  | Ping -> frame op_ping (fun () -> ())
  | Get_stamp -> frame op_get_stamp (fun () -> ())
  | Get_range k ->
    frame op_get_range (fun () ->
        if version = 1 then add_int b k else Buf.put_varint b k)
  | Compare { a; b = b' } ->
    frame op_compare (fun () ->
        if version = 1 then begin
          add_str b a;
          add_str b b'
        end
        else begin
          add_vstr b a;
          add_vstr b b'
        end)
  | Stats -> frame op_stats (fun () -> ())
  | Stop -> frame op_stop (fun () -> ())

let write_resp ?(version = version) b r =
  check_version version;
  let frame op body =
    let mark = begin_frame b version op in
    body ();
    end_frame b mark
  in
  match r with
  | Pong i ->
    frame op_pong (fun () ->
        add_str b i.si_impl;
        add_kind b i.si_kind;
        add_int b i.si_n;
        add_int b i.si_shards;
        add_str b i.si_backend;
        if version >= 2 then add_str b i.si_codec)
  | Stamp w ->
    frame op_stamp (fun () ->
        if version = 1 then begin
          add_int b w.w_pid;
          add_int b w.w_call;
          add_int b w.w_shard;
          add_int b w.w_start_tick;
          add_int b w.w_end_tick;
          add_str b w.w_ts
        end
        else begin
          Buf.put_varint b w.w_pid;
          Buf.put_varint b w.w_call;
          Buf.put_varint b w.w_shard;
          Buf.put_varint b w.w_start_tick;
          Buf.put_varint b w.w_end_tick;
          add_vstr b w.w_ts
        end)
  | Range g ->
    frame op_range (fun () ->
        if version = 1 then begin
          add_int b g.g_pid;
          add_int b g.g_call;
          add_int b g.g_shard;
          add_int b g.g_start_tick;
          add_int b g.g_base;
          add_int b g.g_count;
          add_str b g.g_ts
        end
        else begin
          Buf.put_varint b g.g_pid;
          Buf.put_varint b g.g_call;
          Buf.put_varint b g.g_shard;
          Buf.put_varint b g.g_start_tick;
          Buf.put_varint b g.g_base;
          Buf.put_varint b g.g_count;
          add_vstr b g.g_ts
        end)
  | Cmp v -> frame op_cmp (fun () -> add_bool b v)
  | Stats_reply { sr_shards; sr_conns } ->
    frame op_stats_reply (fun () ->
        add_int b (List.length sr_shards);
        List.iter
          (fun s ->
             add_int b s.ss_served;
             add_int b s.ss_batches;
             add_int b s.ss_max_batch)
          sr_shards;
        add_int b (List.length sr_conns);
        List.iter
          (fun c ->
             add_int b c.cn_slot;
             add_int b c.cn_conns;
             add_int b c.cn_requests;
             add_int b c.cn_stamps;
             add_int b c.cn_leases;
             add_int b c.cn_bytes_in;
             add_int b c.cn_bytes_out)
          sr_conns)
  | Stopping -> frame op_stopping (fun () -> ())
  | Err msg -> frame op_err (fun () -> add_str b msg)

(* The [encode_*] pair return the *payload* (what [decode_*] take and
   what {!Conn.recv} hands back), stripping the length prefix the
   streaming writers put on the wire. *)
let with_buf f =
  let b = Buf.create ~cap:64 () in
  f b;
  let s = Buf.contents b in
  String.sub s 4 (String.length s - 4)

let encode_req ?version r = with_buf (fun b -> write_req ?version b r)

let encode_resp ?version r = with_buf (fun b -> write_resp ?version b r)

(* ------------------------ hot-path v2 writers ---------------------- *)

(* The server's per-stamp encode: all sizes are pure int arithmetic and
   every store is a byte store into the connection's send buffer, so the
   steady-state path allocates zero minor words per stamp (pinned by a
   test and by E19's codec microbench). *)

let write_stamp_v2 b (codec : _ Codec.t) ~pid ~call ~shard ~start_tick
    ~end_tick ts =
  let ts_sz = codec.Codec.c_size ts in
  let body =
    2 + Buf.varint_size pid + Buf.varint_size call + Buf.varint_size shard
    + Buf.varint_size start_tick + Buf.varint_size end_tick
    + Buf.varint_size ts_sz + ts_sz
  in
  Buf.put_u32_be b body;
  Buf.put_u8 b 2;
  Buf.put_u8 b op_stamp;
  Buf.put_varint b pid;
  Buf.put_varint b call;
  Buf.put_varint b shard;
  Buf.put_varint b start_tick;
  Buf.put_varint b end_tick;
  Buf.put_varint b ts_sz;
  let pos = Buf.reserve b ts_sz in
  let pos' = codec.Codec.c_put (Buf.bytes b) pos ts in
  assert (pos' = pos + ts_sz);
  Buf.advance b ts_sz

let write_range_v2 b (codec : _ Codec.t) ~pid ~call ~shard ~start_tick ~base
    ~count ts =
  let ts_sz = codec.Codec.c_size ts in
  let body =
    2 + Buf.varint_size pid + Buf.varint_size call + Buf.varint_size shard
    + Buf.varint_size start_tick + Buf.varint_size base
    + Buf.varint_size count + Buf.varint_size ts_sz + ts_sz
  in
  Buf.put_u32_be b body;
  Buf.put_u8 b 2;
  Buf.put_u8 b op_range;
  Buf.put_varint b pid;
  Buf.put_varint b call;
  Buf.put_varint b shard;
  Buf.put_varint b start_tick;
  Buf.put_varint b base;
  Buf.put_varint b count;
  Buf.put_varint b ts_sz;
  let pos = Buf.reserve b ts_sz in
  let pos' = codec.Codec.c_put (Buf.bytes b) pos ts in
  assert (pos' = pos + ts_sz);
  Buf.advance b ts_sz

(* -------------------------------- decoding ------------------------- *)

exception Bad of error

let fail e = raise (Bad e)

type cursor = { s : string; mutable pos : int }

let take_byte c =
  if c.pos >= String.length c.s then fail Truncated;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let take_int c =
  if c.pos + 8 > String.length c.s then fail Truncated;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  let v' = Int64.to_int v in
  if Int64.of_int v' <> v then fail (Malformed "integer out of range");
  v'

let take_str c =
  let len = take_int c in
  if len < 0 then fail (Malformed "negative string length");
  if c.pos + len > String.length c.s then fail Truncated;
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

(* v2 varint field: strict LEB128, non-negative. *)
let take_uv c =
  match Codec.get_uv c.s c.pos ~limit:(String.length c.s) with
  | v, pos ->
    if v < 0 then fail (Malformed "negative varint field");
    c.pos <- pos;
    v
  | exception Codec.Malformed m -> fail (Malformed m)

let take_vstr c =
  let len = take_uv c in
  if c.pos + len > String.length c.s then fail Truncated;
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

let take_bool c =
  match take_byte c with
  | 0 -> false
  | 1 -> true
  | v -> fail (Malformed (Printf.sprintf "bad bool byte %d" v))

let take_kind c =
  match take_byte c with
  | 0 -> `One_shot
  | 1 -> `Long_lived
  | v -> fail (Malformed (Printf.sprintf "bad kind byte %d" v))

let finish c v =
  if c.pos <> String.length c.s then
    fail (Malformed "trailing bytes after payload");
  v

let header c =
  let v = take_byte c in
  if v < min_version || v > version then fail (Bad_version v);
  let op = take_byte c in
  (v, op)

let decode decode_body payload =
  let c = { s = payload; pos = 0 } in
  match
    let ver, op = header c in
    finish c (ver, decode_body c ver op)
  with
  | v -> Ok v
  | exception Bad e -> Error e

let decode_req =
  decode (fun c ver op ->
      if op = op_ping then Ping
      else if op = op_get_stamp then Get_stamp
      else if op = op_get_range then
        Get_range (if ver = 1 then take_int c else take_uv c)
      else if op = op_compare then
        if ver = 1 then
          let a = take_str c in
          let b = take_str c in
          Compare { a; b }
        else
          let a = take_vstr c in
          let b = take_vstr c in
          Compare { a; b }
      else if op = op_stats then Stats
      else if op = op_stop then Stop
      else fail (Bad_opcode op))

let decode_resp =
  decode (fun c ver op ->
      if op = op_pong then
        let si_impl = take_str c in
        let si_kind = take_kind c in
        let si_n = take_int c in
        let si_shards = take_int c in
        let si_backend = take_str c in
        let si_codec = if ver >= 2 then take_str c else "marshal" in
        Pong { si_impl; si_kind; si_n; si_shards; si_backend; si_codec }
      else if op = op_stamp then
        if ver = 1 then
          let w_pid = take_int c in
          let w_call = take_int c in
          let w_shard = take_int c in
          let w_start_tick = take_int c in
          let w_end_tick = take_int c in
          let w_ts = take_str c in
          Stamp { w_pid; w_call; w_shard; w_start_tick; w_end_tick; w_ts }
        else
          let w_pid = take_uv c in
          let w_call = take_uv c in
          let w_shard = take_uv c in
          let w_start_tick = take_uv c in
          let w_end_tick = take_uv c in
          let w_ts = take_vstr c in
          Stamp { w_pid; w_call; w_shard; w_start_tick; w_end_tick; w_ts }
      else if op = op_range then
        if ver = 1 then
          let g_pid = take_int c in
          let g_call = take_int c in
          let g_shard = take_int c in
          let g_start_tick = take_int c in
          let g_base = take_int c in
          let g_count = take_int c in
          let g_ts = take_str c in
          Range { g_pid; g_call; g_shard; g_start_tick; g_base; g_count;
                  g_ts }
        else
          let g_pid = take_uv c in
          let g_call = take_uv c in
          let g_shard = take_uv c in
          let g_start_tick = take_uv c in
          let g_base = take_uv c in
          let g_count = take_uv c in
          let g_ts = take_vstr c in
          Range { g_pid; g_call; g_shard; g_start_tick; g_base; g_count;
                  g_ts }
      else if op = op_cmp then Cmp (take_bool c)
      else if op = op_stats_reply then begin
        let ns = take_int c in
        if ns < 0 || ns > 1 lsl 16 then fail (Malformed "bad shard count");
        let sr_shards =
          List.init ns (fun _ ->
              let ss_served = take_int c in
              let ss_batches = take_int c in
              let ss_max_batch = take_int c in
              { ss_served; ss_batches; ss_max_batch })
        in
        let nc = take_int c in
        if nc < 0 || nc > 1 lsl 16 then fail (Malformed "bad conn count");
        let sr_conns =
          List.init nc (fun _ ->
              let cn_slot = take_int c in
              let cn_conns = take_int c in
              let cn_requests = take_int c in
              let cn_stamps = take_int c in
              let cn_leases = take_int c in
              let cn_bytes_in = take_int c in
              let cn_bytes_out = take_int c in
              { cn_slot; cn_conns; cn_requests; cn_stamps; cn_leases;
                cn_bytes_in; cn_bytes_out })
        in
        Stats_reply { sr_shards; sr_conns }
      end
      else if op = op_stopping then Stopping
      else if op = op_err then Err (take_str c)
      else fail (Bad_opcode op))

(* Dechunking helper: inspect the 4-byte length prefix of the next frame
   in [buf.[off .. off+avail)].  Pure, shared by {!Conn} and the tests. *)
let frame_length buf ~off ~avail =
  if avail < 4 then `Need_more
  else
    let len = Int32.to_int (Bytes.get_int32_be buf off) in
    if len < 2 then `Error (Malformed (Printf.sprintf "frame length %d" len))
    else if len > max_payload then `Error (Oversized len)
    else `Length len
