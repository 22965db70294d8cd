(* Network layer: frame codec round-trips and rejection, the TCP/Unix
   transport end to end against a live server, epoch-range lease
   soundness under concurrent clients, and graceful shutdown with
   connections still open. *)

open Svc.Client

let sock_path () =
  let p = Filename.temp_file "tsnet" ".sock" in
  (* Server.start unlinks an existing path before bind *)
  p

(* ------------------------- frame codec ---------------------------- *)

let gen_blob = QCheck2.Gen.(string_size (int_range 0 64))

let gen_req =
  QCheck2.Gen.(
    oneof
      [ return Net.Frame.Ping;
        return Net.Frame.Get_stamp;
        map (fun k -> Net.Frame.Get_range k) (int_range 1 Net.Frame.max_lease);
        map2 (fun a b -> Net.Frame.Compare { a; b }) gen_blob gen_blob;
        return Net.Frame.Stats;
        return Net.Frame.Stop ])

let gen_resp =
  let open QCheck2.Gen in
  let nat = int_range 0 1_000_000 in
  let gen_info =
    map2
      (fun (impl, backend) ((n, shards), codec) ->
         Net.Frame.Pong
           { si_impl = impl;
             si_kind = (if n land 1 = 0 then `One_shot else `Long_lived);
             si_n = n; si_shards = shards; si_backend = backend;
             si_codec = codec })
      (pair gen_blob gen_blob) (pair (pair nat nat) gen_blob)
  in
  let gen_stamp =
    map2
      (fun (pid, call) ((shard, (s, e)), ts) ->
         Net.Frame.Stamp
           { w_pid = pid; w_call = call; w_shard = shard; w_start_tick = s;
             w_end_tick = e; w_ts = ts })
      (pair nat nat)
      (pair (pair nat (pair nat nat)) gen_blob)
  in
  let gen_range =
    map2
      (fun ((pid, call), (shard, start)) ((base, count), ts) ->
         Net.Frame.Range
           { g_pid = pid; g_call = call; g_shard = shard;
             g_start_tick = start; g_base = base; g_count = count; g_ts = ts })
      (pair (pair nat nat) (pair nat nat))
      (pair (pair nat nat) gen_blob)
  in
  let gen_stats =
    map2
      (fun served reqs ->
         Net.Frame.Stats_reply
           { sr_shards =
               [ { Net.Frame.ss_served = served; ss_batches = served / 2;
                   ss_max_batch = 7 } ];
             sr_conns =
               [ { Net.Frame.cn_slot = 0; cn_conns = 2; cn_requests = reqs;
                   cn_stamps = reqs; cn_leases = 1; cn_bytes_in = 10 * reqs;
                   cn_bytes_out = 30 * reqs } ] })
      nat nat
  in
  oneof
    [ gen_info; gen_stamp; gen_range;
      map (fun v -> Net.Frame.Cmp v) bool;
      gen_stats;
      return Net.Frame.Stopping;
      map (fun m -> Net.Frame.Err m) gen_blob ]

let req_roundtrip =
  Util.qtest ~count:200 "frame: req round-trip (v2)" gen_req (fun r ->
      Net.Frame.decode_req (Net.Frame.encode_req r) = Ok (2, r))

let resp_roundtrip =
  Util.qtest ~count:200 "frame: resp round-trip (v2)" gen_resp (fun r ->
      Net.Frame.decode_resp (Net.Frame.encode_resp r) = Ok (2, r))

(* The v1 layout must stay decodable (old peers negotiate down to it).
   A v1 [Pong] cannot carry the codec name: it decodes as "marshal". *)
let req_roundtrip_v1 =
  Util.qtest ~count:200 "frame: req round-trip (v1)" gen_req (fun r ->
      Net.Frame.decode_req (Net.Frame.encode_req ~version:1 r) = Ok (1, r))

let resp_roundtrip_v1 =
  Util.qtest ~count:200 "frame: resp round-trip (v1)" gen_resp (fun r ->
      let expect =
        match r with
        | Net.Frame.Pong i -> Net.Frame.Pong { i with si_codec = "marshal" }
        | r -> r
      in
      Net.Frame.decode_resp (Net.Frame.encode_resp ~version:1 r)
      = Ok (1, expect))

let frame_rejects () =
  let is_err = function Result.Error _ -> true | Result.Ok _ -> false in
  (* every strict prefix of a valid payload is rejected *)
  let payload = Net.Frame.encode_req (Net.Frame.Get_range 1024) in
  for len = 0 to String.length payload - 1 do
    Util.check_bool
      (Printf.sprintf "truncated at %d rejected" len)
      true
      (is_err (Net.Frame.decode_req (String.sub payload 0 len)))
  done;
  (* wrong version byte *)
  let bad_version = "\007" ^ String.sub payload 1 (String.length payload - 1) in
  Util.check_bool "bad version rejected" true
    (Net.Frame.decode_req bad_version = Result.Error (Net.Frame.Bad_version 7));
  (* unknown opcode — on both decoders *)
  let bad_op = "\001\099" in
  Util.check_bool "bad opcode rejected (req)" true
    (Net.Frame.decode_req bad_op = Result.Error (Net.Frame.Bad_opcode 99));
  Util.check_bool "bad opcode rejected (resp)" true
    (Net.Frame.decode_resp bad_op = Result.Error (Net.Frame.Bad_opcode 99));
  (* a response opcode is not a request *)
  Util.check_bool "resp opcode rejected by req decoder" true
    (is_err (Net.Frame.decode_req (Net.Frame.encode_resp Net.Frame.Stopping)));
  (* trailing garbage after a well-formed body *)
  Util.check_bool "trailing bytes rejected" true
    (is_err (Net.Frame.decode_req (payload ^ "x")));
  (* length-prefix screening: oversized and nonsense lengths *)
  let prefix n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    b
  in
  (match
     Net.Frame.frame_length (prefix (Net.Frame.max_payload + 1)) ~off:0
       ~avail:4
   with
   | `Error (Net.Frame.Oversized _) -> ()
   | _ -> Alcotest.fail "oversized length accepted");
  (match Net.Frame.frame_length (prefix 1) ~off:0 ~avail:4 with
   | `Error (Net.Frame.Malformed _) -> ()
   | _ -> Alcotest.fail "absurd length accepted");
  (match Net.Frame.frame_length (prefix 100) ~off:0 ~avail:3 with
   | `Need_more -> ()
   | _ -> Alcotest.fail "short prefix not Need_more")

let addr_parsing () =
  let check s expect =
    Util.check_bool
      (Printf.sprintf "parse %S" s)
      true
      (Net.Conn.parse_addr s = expect)
  in
  check "unix:/tmp/x.sock" (Some (Net.Conn.Unix_path "/tmp/x.sock"));
  check "/tmp/x.sock" (Some (Net.Conn.Unix_path "/tmp/x.sock"));
  check "tcp:127.0.0.1:9090"
    (Some (Net.Conn.Tcp { host = "127.0.0.1"; port = 9090 }));
  check "localhost:80" (Some (Net.Conn.Tcp { host = "localhost"; port = 80 }));
  check "tcp:nohost" None;
  check "host:99999" None;
  check "" None

(* ----------------------- timestamp codecs -------------------------- *)

let codec_roundtrip (type r) label
    (module T : Timestamp.Intf.S with type result = r) gen =
  let c = Net.Codec.for_impl (module T) in
  Util.qtest ~count:200
    (Printf.sprintf "codec: %s (%s) round-trip" (Net.Codec.name c) label)
    gen
    (fun v ->
       let n = c.Net.Codec.c_size v in
       let b = Bytes.create n in
       c.Net.Codec.c_put b 0 v = n
       && T.equal_ts (Net.Codec.decode_exn c (Bytes.to_string b)) v)

let gen_any_int =
  QCheck2.Gen.(
    oneof
      [ int_range (-1000) 1000; int_range 0 max_int;
        map Int.neg (int_range 0 max_int) ])

let codec_roundtrips =
  [ codec_roundtrip "lamport" (module Timestamp.Lamport) gen_any_int;
    codec_roundtrip "sqrt-oneshot"
      (module Timestamp.Sqrt.One_shot)
      QCheck2.Gen.(pair gen_any_int gen_any_int);
    codec_roundtrip "vector"
      (module Timestamp.Vector_ts)
      QCheck2.Gen.(array_size (int_range 0 8) gen_any_int);
    codec_roundtrip "efr"
      (module Timestamp.Efr)
      QCheck2.Gen.(
        oneof
          [ map (fun v -> Timestamp.Efr.Even v) gen_any_int;
            map2 (fun m c -> Timestamp.Efr.Odd (m, c)) gen_any_int
              gen_any_int ]) ]

let codec_rejects () =
  let c = Net.Codec.for_impl (module Timestamp.Vector_ts) in
  let enc v =
    let n = c.Net.Codec.c_size v in
    let b = Bytes.create n in
    ignore (c.Net.Codec.c_put b 0 v);
    Bytes.to_string b
  in
  let malformed s =
    match Net.Codec.decode_exn c s with
    | _ -> false
    | exception Net.Codec.Malformed _ -> true
  in
  let payload = enc [| 1; 200; -3; 1 lsl 40 |] in
  (* every strict prefix is a truncation, never a shorter valid value *)
  for len = 0 to String.length payload - 1 do
    Util.check_bool
      (Printf.sprintf "truncated codec payload at %d rejected" len)
      true
      (malformed (String.sub payload 0 len))
  done;
  Util.check_bool "trailing bytes rejected" true
    (malformed (payload ^ "\000"));
  (* a varint longer than 63 bits is an overflow, not more data *)
  Util.check_bool "varint overflow rejected" true
    (malformed (String.make 10 '\xff'));
  (* an absurd element count is refused before allocating for it *)
  let huge =
    let b = Bytes.create 9 in
    let stop = Net.Codec.put_uv b 0 (Net.Codec.max_vector + 1) in
    Bytes.sub_string b 0 stop
  in
  Util.check_bool "oversized vector count rejected" true (malformed huge);
  (* implementations without a fixed layout refuse to decode at all:
     their Marshal fallback is not a validating parser *)
  match Fuzz.Mutant.find "mutant-lost-increment" with
  | None -> Alcotest.fail "mutant registry lost its seed mutant"
  | Some (Timestamp.Registry.Impl (module M)) ->
    let oc = Net.Codec.for_impl (module M) in
    Util.check_bool "fallback codec is opaque" true
      (Net.Codec.name oc = "opaque");
    Util.check_bool "fallback codec is unsafe" false (Net.Codec.safe oc);
    (match Net.Codec.decode_exn oc "x" with
     | _ -> Alcotest.fail "opaque codec decoded untrusted bytes"
     | exception Net.Codec.Malformed _ -> ())

(* Every registered implementation ships a safe wire codec, so a v2
   server never falls back to refusing [Compare]. *)
let registry_codecs_safe () =
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       let c = Net.Codec.for_impl (module T) in
       Util.check_bool (Printf.sprintf "%s codec safe" T.name) true
         (Net.Codec.safe c))
    Timestamp.Registry.all

(* The server's hot-path stamp writer must not allocate: byte stores and
   int arithmetic only (E19's microbench pins the same property under
   load; this pins it hermetically). *)
let stamp_writer_zero_alloc () =
  let codec = Net.Codec.for_impl (module Timestamp.Lamport) in
  let b = Net.Buf.create ~cap:4096 () in
  let encode () =
    Net.Buf.clear b;
    Net.Frame.write_stamp_v2 b codec ~pid:3 ~call:123_456 ~shard:1
      ~start_tick:99_999_999 ~end_tick:100_000_007 424_242
  in
  encode ();  (* settle buffer growth before measuring *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    encode ()
  done;
  let delta = Gc.minor_words () -. w0 in
  Util.check_bool
    (Printf.sprintf "10k stamps allocated %.0f minor words" delta)
    true (delta < 256.)

(* A frame appended behind a partly flushed prefix: the send buffer
   holds unconsumed bytes at a nonzero offset, and the frame's payload
   outgrows the capacity, so the append compacts the buffer in the middle
   of the frame.  The length prefix must still land on the frame's own
   first four bytes. *)
let frame_patch_survives_compaction () =
  let b = Net.Buf.create ~cap:16 () in
  Net.Buf.put_string b "0123456789";
  Net.Buf.consume b 4;
  Util.check_int "offset after partial flush" 4 (Net.Buf.offset b);
  Net.Frame.write_resp b (Net.Frame.Err "hello");
  let s = Net.Buf.contents b in
  Util.check_bool "old pending bytes kept" true (String.sub s 0 6 = "456789");
  let frame = String.sub s 6 (String.length s - 6) in
  match Net.Frame.frame_length (Bytes.of_string frame) ~off:0
          ~avail:(String.length frame) with
  | `Length len ->
    Util.check_int "length prefix covers the payload" (String.length frame - 4)
      len;
    (match Net.Frame.decode_resp (String.sub frame 4 len) with
     | Ok (_, Net.Frame.Err m) -> Util.check_bool "payload decodes" true (m = "hello")
     | Ok _ -> Alcotest.fail "decoded another response"
     | Error e -> Alcotest.fail (Net.Frame.error_to_string e))
  | `Need_more -> Alcotest.fail "length prefix promises more than was written"
  | `Error e -> Alcotest.fail (Net.Frame.error_to_string e)

(* [Buf] against a [string] oracle: random interleavings of appends,
   partial consumes (a socket taking some of the pending bytes), raw
   reserve/advance writes, length patches taken before later appends,
   and whole frames.  A small initial capacity makes most appends
   compact or grow the storage. *)
type buf_op =
  | B_u8 of int
  | B_u32 of int
  | B_i64 of int
  | B_varint of int
  | B_string of string
  | B_consume of int  (* taken modulo the pending length + 1 *)
  | B_reserve of string  (* written through reserve/bytes/advance *)
  | B_mark  (* a u32 placeholder, remembered for a later patch *)
  | B_patch of int  (* patch the oldest outstanding placeholder *)
  | B_frame of string  (* Frame.write_resp (Err s) *)

let gen_buf_op =
  let open QCheck2.Gen in
  let small = string_size (int_range 0 40) in
  frequency
    [ (2, map (fun v -> B_u8 v) (int_range 0 255));
      (2, map (fun v -> B_u32 v) (int_range 0 0xffff_ffff));
      (2, map (fun v -> B_i64 v) int);
      (2, map (fun v -> B_varint v) (int_range 0 max_int));
      (2, map (fun s -> B_string s) small);
      (3, map (fun k -> B_consume k) (int_range 0 1000));
      (2, map (fun s -> B_reserve s) small);
      (2, return B_mark);
      (2, map (fun v -> B_patch v) (int_range 0 0xffff_ffff));
      (2, map (fun s -> B_frame s) small) ]

let u32_be v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let fresh_encoding f =
  let b = Net.Buf.create () in
  f b;
  Net.Buf.contents b

let buf_model =
  Util.qtest ~count:300 "buf: random appends/consumes/patches match a string"
    QCheck2.Gen.(list_size (int_range 1 80) gen_buf_op)
    (fun ops ->
       let b = Net.Buf.create ~cap:16 () in
       let oracle = ref "" in
       (* outstanding placeholders, oldest first, as distances from the
          first pending byte *)
       let marks = ref [] in
       let append s = oracle := !oracle ^ s in
       List.for_all
         (fun op ->
            (match op with
             | B_u8 v ->
               Net.Buf.put_u8 b v;
               append (String.make 1 (Char.chr v))
             | B_u32 v ->
               Net.Buf.put_u32_be b v;
               append (u32_be v)
             | B_i64 v ->
               Net.Buf.put_i64_be b v;
               append (fresh_encoding (fun b -> Net.Buf.put_i64_be b v))
             | B_varint v ->
               Net.Buf.put_varint b v;
               append (fresh_encoding (fun b -> Net.Buf.put_varint b v))
             | B_string s ->
               Net.Buf.put_string b s;
               append s
             | B_consume k ->
               let k = k mod (String.length !oracle + 1) in
               Net.Buf.consume b k;
               oracle := String.sub !oracle k (String.length !oracle - k);
               marks :=
                 List.filter_map
                   (fun m -> if m >= k then Some (m - k) else None)
                   !marks
             | B_reserve s ->
               let n = String.length s in
               let pos = Net.Buf.reserve b n in
               Bytes.blit_string s 0 (Net.Buf.bytes b) pos n;
               Net.Buf.advance b n;
               append s
             | B_mark ->
               marks := !marks @ [ Net.Buf.length b ];
               Net.Buf.put_u32_be b 0;
               append (u32_be 0)
             | B_patch v -> (
                 match !marks with
                 | [] -> ()
                 | m :: rest ->
                   marks := rest;
                   Net.Buf.patch_u32_be b m v;
                   let o = !oracle in
                   oracle :=
                     String.sub o 0 m ^ u32_be v
                     ^ String.sub o (m + 4) (String.length o - m - 4))
             | B_frame s ->
               let r = Net.Frame.Err s in
               Net.Frame.write_resp b r;
               append (fresh_encoding (fun b -> Net.Frame.write_resp b r)));
            Net.Buf.length b = String.length !oracle
            && Net.Buf.contents b = !oracle)
         ops)

(* ---------------------- live server round trips -------------------- *)

let wire_end_to_end () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:4 () in
  let c = C.connect addr in
  let info = C.server_info c in
  Util.check_bool "handshake impl" true
    (info.Net.Frame.si_impl = "lamport-longlived");
  Util.check_int "handshake n" 4 info.Net.Frame.si_n;
  Util.check_int "handshake shards" 1 info.Net.Frame.si_shards;
  let s1 = C.stamp c in
  let s2 = C.stamp c in
  Util.check_bool "per-session calls sequence" true (s1.st_call < s2.st_call);
  Util.check_bool "end ticks advance" true (s1.st_end_tick < s2.st_end_tick);
  Util.check_bool "timestamp order holds" true (C.compare c s1 s2);
  Util.check_bool "server-side compare agrees" (C.compare c s1 s2)
    (C.compare_remote c s1 s2);
  Util.check_bool "server-side compare agrees (reversed)" (C.compare c s2 s1)
    (C.compare_remote c s2 s1);
  let batch = C.stamp_batch c 5 in
  Util.check_int "batch completes" 5 (List.length batch);
  let calls = List.map (fun s -> s.st_call) batch in
  Util.check_bool "batch in issue order" true
    (calls = List.sort Int.compare calls);
  let shard_stats, conn_stats = C.stats c in
  Util.check_int "one shard reported" 1 (List.length shard_stats);
  let reqs =
    List.fold_left (fun a (k : Net.Frame.conn_stat) -> a + k.cn_requests) 0
      conn_stats
  in
  Util.check_bool "connection counters counted us" true (reqs >= 8);
  let stamps =
    List.fold_left (fun a (k : Net.Frame.conn_stat) -> a + k.cn_stamps) 0
      conn_stats
  in
  Util.check_int "stamps counted" 7 stamps;
  C.close c;
  Srv.stop srv;
  Util.check_bool "socket path unlinked" false (Sys.file_exists path)

let session_exhaustion_is_clean () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:1 () in
  let c1 = C.connect addr in
  let _ = C.stamp c1 in
  (* second stamping connection exceeds the long-lived object's n=1 *)
  let c2 = C.connect addr in
  (match C.stamp c2 with
   | _ -> Alcotest.fail "over-n session unexpectedly served"
   | exception Error msg ->
     let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
       at 0
     in
     Util.check_bool "clean server-side error" true (contains msg "at most"));
  (* the refused connection can still use sessionless requests *)
  let _ = C.server_info c2 in
  Util.check_bool "refused conn still compares" true
    (let s = C.stamp c1 and s' = C.stamp c1 in
     C.compare_remote c2 s s');
  C.close c1;
  C.close c2;
  Srv.stop srv

(* --------------------- leases under concurrency -------------------- *)

let lease_concurrent_clients () =
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:4 () in
  let clients = 3 in
  let rounds = 10 in
  let doms =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            let c = C.connect ~lease:8 addr in
            let acc = ref [] in
            for _ = 1 to rounds do
              acc := C.stamp c :: !acc;
              acc := List.rev_append (C.stamp_batch c 3) !acc
            done;
            C.close c;
            (* issue order = reverse of accumulation *)
            List.rev !acc))
  in
  let per_client = List.map Domain.join doms in
  (* each client's stamps mint strictly increasing end ticks *)
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  List.iteri
    (fun i stamps ->
       Util.check_bool
         (Printf.sprintf "client %d end ticks strictly increase" i)
         true
         (strictly_increasing (List.map (fun s -> s.st_end_tick) stamps)))
    per_client;
  let stamps = List.concat per_client in
  Util.check_int "all stamps arrived" (clients * rounds * 4)
    (List.length stamps);
  (* leases are disjoint: no end tick is ever handed out twice *)
  let ends =
    List.sort Int.compare (List.map (fun s -> s.st_end_tick) stamps)
  in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  Util.check_bool "lease tick ranges disjoint across clients" true
    (no_dup ends);
  (* Stamps minted from one shared cached anchor all carry the anchor's
     start tick, so a fast run can be hb-vacuous (sound, but nothing to
     check).  Force a real pair: poll until the refresher publishes an
     anchor whose getTS started after every reservation above — its
     stamps must order strictly over the whole first phase. *)
  let max_end = List.fold_left (fun m s -> max m s.st_end_tick) 0 stamps in
  let stamps =
    let c = C.connect ~lease:2 addr in
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec fresh () =
      let s = C.stamp c in
      if s.st_start_tick > max_end then s
      else if Unix.gettimeofday () > deadline then
        Alcotest.fail "anchor never refreshed past the first phase"
      else begin
        Unix.sleepf 0.002;
        fresh ()
      end
    in
    let s = fresh () in
    C.close c;
    s :: stamps
  in
  (* and the real-time checker accepts the whole run *)
  let timed =
    List.map
      (fun s ->
         { Timestamp.Checker.td_pid = s.st_pid; td_call = s.st_call;
           td_start = s.st_start_tick; td_end = s.st_end_tick;
           td_ts = s.st_ts })
      stamps
  in
  (match
     Timestamp.Checker.check_timed ~compare_ts:Timestamp.Efr.compare_ts
       ~pp:Timestamp.Efr.pp_ts timed
   with
   | Result.Ok pairs -> Util.check_bool "checker verified pairs" true (pairs > 0)
   | Result.Error v ->
     Alcotest.failf "leased stamps violate happens-before: %a"
       Timestamp.Checker.pp_violation v);
  Srv.stop srv

(* ------------------------- shutdown paths -------------------------- *)

let shutdown_with_inflight_connections () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:4 () in
  let c1 = C.connect addr in
  let _ = C.stamp c1 in
  let c2 = C.connect addr in  (* idle: its handler is blocked in read *)
  Srv.stop srv;  (* must return with both connections still open *)
  (match C.stamp c1 with
   | _ -> Alcotest.fail "stamp served after shutdown"
   | exception Error _ -> ());
  (match C.connect addr with
   | c -> C.close c; Alcotest.fail "connect accepted after shutdown"
   | exception Error _ -> ());
  C.close c1;
  C.close c2;
  (* stop is idempotent *)
  Srv.stop srv

let stop_frame_flow () =
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:2 () in
  let c = C.connect addr in
  Util.check_bool "no stop requested yet" false (Srv.stop_requested srv);
  C.stop_server c;  (* returns once the server acked Stopping *)
  Util.check_bool "stop flag raised" true (Srv.stop_requested srv);
  Srv.wait srv;  (* returns immediately now *)
  C.close c;
  Srv.stop srv

(* -------------------- raw-socket protocol tests --------------------- *)

(* Hand-rolled peers: drive the reactor with exact byte sequences the
   high-level client would never produce (split writes, version skew,
   pipelined floods). *)

let raw_connect addr =
  let fd =
    Unix.socket ~cloexec:true (Net.Conn.domain_of addr) Unix.SOCK_STREAM 0
  in
  Unix.connect fd (Net.Conn.sockaddr_of addr);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k = Unix.read fd b !off (n - !off) in
    if k = 0 then failwith "unexpected EOF from server";
    off := !off + k
  done;
  Bytes.to_string b

let read_frame fd =
  let hdr = read_exact fd 4 in
  let len = Int32.to_int (String.get_int32_be hdr 0) in
  read_exact fd len

let frame_of ?version req =
  let b = Net.Buf.create () in
  Net.Frame.write_req ?version b req;
  Net.Buf.contents b

let expect_stamp label payload =
  match Net.Frame.decode_resp payload with
  | Ok (_, Net.Frame.Stamp w) -> w
  | Ok _ -> Alcotest.failf "%s: expected Stamp" label
  | Error e ->
    Alcotest.failf "%s: undecodable: %s" label (Net.Frame.error_to_string e)

(* A frame delivered one byte per read must accumulate across loop
   passes and still be answered. *)
let wire_split_frames () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let f = frame_of Net.Frame.Get_stamp in
  String.iter
    (fun ch ->
       write_all fd (String.make 1 ch);
       Unix.sleepf 0.002)
    f;
  let w = expect_stamp "split frame" (read_frame fd) in
  Util.check_bool "split frame answered" true (w.Net.Frame.w_end_tick >= 0);
  (* and the next frame, sent whole on the same connection, still works *)
  write_all fd f;
  let w' = expect_stamp "after split" (read_frame fd) in
  Util.check_bool "stream still aligned" true
    (w.Net.Frame.w_end_tick < w'.Net.Frame.w_end_tick);
  Unix.close fd;
  Srv.stop srv

(* A pipelined burst bigger than the 8 KiB read buffer: frames straddle
   refill boundaries; responses must come back complete and in order. *)
let wire_pipelined_burst () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let k = 3000 in
  let burst =
    let b = Net.Buf.create () in
    for _ = 1 to k do
      Net.Frame.write_req b Net.Frame.Get_stamp
    done;
    Net.Buf.contents b
  in
  Util.check_bool "burst straddles the read buffer" true
    (String.length burst > 8192);
  write_all fd burst;
  let last = ref (-1) in
  for i = 1 to k do
    let w = expect_stamp (Printf.sprintf "burst %d" i) (read_frame fd) in
    Util.check_bool "burst responses in order" true
      (!last < w.Net.Frame.w_end_tick);
    last := w.Net.Frame.w_end_tick
  done;
  Unix.close fd;
  Srv.stop srv

(* A reader that stalls while the server owes it hundreds of KiB: the
   write queue grows past the high-water mark, the loop stops reading
   from the connection (backpressure), and once the reader drains,
   every response arrives, in order, with nothing lost. *)
let wire_slow_reader_backpressure () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let k = 20_000 in
  let burst =
    let b = Net.Buf.create () in
    for _ = 1 to k do
      Net.Frame.write_req b Net.Frame.Get_stamp
    done;
    Net.Buf.contents b
  in
  (* the writer must not share the reader's pace, or the test deadlocks
     against the very backpressure it is checking *)
  let writer = Domain.spawn (fun () -> write_all fd burst) in
  let last = ref (-1) in
  for i = 1 to k do
    if i <= 20 then Unix.sleepf 0.005;  (* stall: let the backlog build *)
    let w = expect_stamp (Printf.sprintf "slow %d" i) (read_frame fd) in
    Util.check_bool "responses survive backpressure in order" true
      (!last < w.Net.Frame.w_end_tick);
    last := w.Net.Frame.w_end_tick
  done;
  Domain.join writer;
  Unix.close fd;
  Srv.stop srv

(* Both ends of a TCP connection run with Nagle's algorithm off: the
   client's socket and the one the server's I/O loop adopted.  Both live
   in this process, so they are found among its open descriptors by the
   server's port. *)
let wire_tcp_nodelay () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let srv =
    Srv.start ~addr:(Net.Conn.Tcp { host = "127.0.0.1"; port = 0 }) ~n:2 ()
  in
  let addr = Srv.bound_addr srv in
  let port = match addr with Net.Conn.Tcp { port; _ } -> port | _ -> 0 in
  let c = C.connect addr in
  ignore (C.stamp c);  (* the server has adopted the connection *)
  let fds =
    Sys.readdir "/proc/self/fd" |> Array.to_list
    |> List.filter_map int_of_string_opt
    |> List.map (fun i -> (Obj.magic (i : int) : Unix.file_descr))
  in
  let inet_port = function Unix.ADDR_INET (_, p) -> Some p | _ -> None in
  let ends side =
    List.filter
      (fun fd ->
         match (Unix.getsockname fd, Unix.getpeername fd) with
         | local, peer ->
           inet_port (if side = `Client then peer else local) = Some port
         | exception Unix.Unix_error _ -> false)
      fds
  in
  let client_ends = ends `Client and server_ends = ends `Server in
  Util.check_int "one client end" 1 (List.length client_ends);
  Util.check_int "one server end" 1 (List.length server_ends);
  List.iter
    (fun (label, fd) ->
       Util.check_bool (label ^ " has TCP_NODELAY") true
         (Unix.getsockopt fd Unix.TCP_NODELAY))
    [ ("client", List.hd client_ends); ("server", List.hd server_ends) ];
  C.close c;
  Srv.stop srv

(* The reactor's park-and-ring over one loopback TCP connection: each
   cycle sends one Get_stamp and reads the reply, then sleeps long enough
   for the shard worker to park and the I/O loop to block in select, so
   every reply needs the worker's submit wakeup and the loop's doorbell.
   A lost wakeup stalls the reply past the receive timeout. *)
let wire_park_ring_stress () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let srv =
    Srv.start ~addr:(Net.Conn.Tcp { host = "127.0.0.1"; port = 0 }) ~n:2 ()
  in
  let fd = raw_connect (Srv.bound_addr srv) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  let req = frame_of Net.Frame.Get_stamp in
  let last = ref (-1) in
  for i = 1 to 2000 do
    write_all fd req;
    let w =
      match read_frame fd with
      | payload -> expect_stamp "stress" payload
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "cycle %d: no reply within 2 s (lost wakeup)" i
    in
    Util.check_bool "end ticks advance" true (w.Net.Frame.w_end_tick > !last);
    last := w.Net.Frame.w_end_tick;
    Unix.sleepf 200e-6
  done;
  Unix.close fd;
  Srv.stop srv

(* Version negotiation, wire-level: a v1 peer is answered in v1
   (Marshal timestamps, codec "marshal"), except [Compare] — decoding a
   v1 Marshal payload from the network is exactly what v2 removed. *)
let wire_v1_peer () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  write_all fd (frame_of ~version:1 Net.Frame.Ping);
  (match Net.Frame.decode_resp (read_frame fd) with
   | Ok (1, Net.Frame.Pong info) ->
     Util.check_bool "v1 pong impl" true
       (info.Net.Frame.si_impl = "lamport-longlived");
     Util.check_bool "v1 pong codec is marshal" true
       (info.Net.Frame.si_codec = "marshal")
   | _ -> Alcotest.fail "v1 ping not answered with a v1 Pong");
  write_all fd (frame_of ~version:1 Net.Frame.Get_stamp);
  (match Net.Frame.decode_resp (read_frame fd) with
   | Ok (1, Net.Frame.Stamp w) ->
     (* v1 carries Marshal — fine to decode here: we produced it *)
     let ts : int = Marshal.from_string w.Net.Frame.w_ts 0 in
     Util.check_bool "v1 stamp payload decodes" true (ts >= 0)
   | _ -> Alcotest.fail "v1 Get_stamp not answered with a v1 Stamp");
  let blob = Marshal.to_string 1 [] in
  write_all fd (frame_of ~version:1 (Net.Frame.Compare { a = blob; b = blob }));
  (match Net.Frame.decode_resp (read_frame fd) with
   | Ok (1, Net.Frame.Err msg) ->
     Util.check_bool "v1 compare refused for version reasons" true
       (contains msg "version")
   | _ -> Alcotest.fail "v1 Compare was not refused");
  (* an unknown version draws the exact error the client's fallback
     scans for, then the connection closes *)
  write_all fd "\000\000\000\002\007\001";
  (match Net.Frame.decode_resp (read_frame fd) with
   | Ok (_, Net.Frame.Err msg) ->
     Util.check_bool "bad version error text" true
       (contains msg "bad frame version 7")
   | _ -> Alcotest.fail "bad version byte not answered with Err");
  Unix.close fd;
  Srv.stop srv

(* Connection churn: 200 sequential connect/close cycles must not grow
   the domain count (the PR-9 design leaked one handler domain per
   connection ever accepted) and the telemetry table stays at
   [conn_slots] slots with the live count draining back to zero. *)
let wire_churn_bounded () =
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 ~conn_slots:2 () in
  let d0 = Srv.domains srv in
  Util.check_bool "domain budget: io_threads + accept + refresher" true
    (d0 <= Srv.io_threads srv + 2);
  for _ = 1 to 200 do
    let c = C.connect addr in
    C.close c
  done;
  Util.check_int "no domains spawned by churn" d0 (Srv.domains srv);
  Util.check_int "conns accounted" 200 (Srv.conns_total srv);
  let sources = Srv.net_sources srv in
  Util.check_int "gauge table capped at conn_slots" (2 * 6)
    (List.length sources);
  let live_gauges () =
    List.fold_left
      (fun acc (name, f) ->
         if String.length name >= 6
            && String.sub name (String.length name - 6) 6 = ".conns"
         then acc +. f ()
         else acc)
      0. sources
  in
  (* the loops reap closed fds on their next pass; poll briefly *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Srv.live_conns srv > 0 || live_gauges () > 0.)
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  Util.check_int "live connections drained" 0 (Srv.live_conns srv);
  Util.check_bool "live slot gauges drained" true (live_gauges () = 0.);
  Srv.stop srv

(* --------------------- the in-process transports -------------------- *)

let inproc_client_api () =
  let module S = Svc.Service.Make (Timestamp.Efr) in
  let module C = Svc.Client.Inproc (Timestamp.Efr) in
  let svc = S.start ~n:2 () in
  let c = C.connect svc in
  let s1 = C.stamp c in
  let batch = C.stamp_batch c 4 in
  let s2 = C.stamp c in
  Util.check_int "batch size" 4 (List.length batch);
  let all = (s1 :: batch) @ [ s2 ] in
  let calls = List.map (fun s -> s.st_call) all in
  Util.check_bool "calls sequential per session" true
    (calls = List.init (List.length all) (fun i -> i));
  Util.check_bool "order holds" true (C.compare c s1 s2);
  let d = C.stamp_async c in
  let s3 = d () in
  Util.check_bool "async completes after s2" true
    (s2.st_end_tick < s3.st_end_tick);
  C.close c;
  S.stop svc

let direct_client_api () =
  let module C = Svc.Client.Direct (Timestamp.Lamport) in
  let ctx = C.create_ctx ~n:2 () in
  let c0 = C.connect ctx in
  let c1 = C.connect ctx in
  let a = C.stamp c0 in
  let b = C.stamp c1 in
  Util.check_int "first client owns pid 0" 0 a.st_pid;
  Util.check_int "second client owns pid 1" 1 b.st_pid;
  Util.check_bool "order holds" true (C.compare c0 a b);
  (match C.connect ctx with
   | _ -> Alcotest.fail "third long-lived client admitted at n=2"
   | exception Invalid_argument _ -> ());
  C.close c0;
  C.close c1

let suite =
  ( "net",
    [ req_roundtrip;
      resp_roundtrip;
      req_roundtrip_v1;
      resp_roundtrip_v1;
      Util.case "frame: truncated/oversized/bad-version rejected" frame_rejects ]
    @ codec_roundtrips
    @ [ Util.case "codec: truncated/oversized/opaque rejected" codec_rejects;
      Util.case "codec: every registry impl has a safe codec"
        registry_codecs_safe;
      Util.case "frame: v2 stamp writer allocates nothing"
        stamp_writer_zero_alloc;
      Util.case "frame: length patch survives mid-frame compaction"
        frame_patch_survives_compaction;
      buf_model;
      Util.case "conn: address parsing" addr_parsing;
      Util.case "wire: end-to-end over a unix socket" wire_end_to_end;
      Util.case "wire: frames split across byte-sized reads"
        wire_split_frames;
      Util.case "wire: pipelined burst straddles the read buffer"
        wire_pipelined_burst;
      Util.case "wire: slow reader gets backpressure, loses nothing"
        wire_slow_reader_backpressure;
      Util.case "wire: v1 peer negotiation and v1 Compare refusal"
        wire_v1_peer;
      Util.case "wire: churn keeps domains and gauges bounded"
        wire_churn_bounded;
      Util.case "wire: session exhaustion is a clean error"
        session_exhaustion_is_clean;
      Util.case "wire: TCP_NODELAY on both ends" wire_tcp_nodelay;
      Util.case "wire: park-and-ring survives thousands of idle cycles"
        wire_park_ring_stress;
      Util.case "lease: concurrent clients stay hb-sound"
        lease_concurrent_clients;
      Util.case "shutdown: graceful with in-flight connections"
        shutdown_with_inflight_connections;
      Util.case "shutdown: Stop frame reaches the owner" stop_frame_flow;
      Util.case "client: Inproc transport semantics" inproc_client_api;
      Util.case "client: Direct transport semantics" direct_client_api ] )
