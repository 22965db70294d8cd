(* Wire-facing timestamp server: a sharded event-loop reactor.

   PR 9 spawned one handler domain per connection — simple, but OCaml
   caps the domain count at ~[Domain.recommended_domain_count] (128 on
   most builds), the handler list grew without bound under churn, and a
   thousand connections would need a thousand domains.  This version
   keeps a small fixed pool of I/O domains ([io_threads], default =
   shards); each loop multiplexes many non-blocking connections with
   [Unix.select], driving a per-connection state machine:

   - reads may deliver partial frames; bytes accumulate in the
     connection's receive buffer until {!Frame.frame_length} says a
     frame is complete;
   - responses are framed into the connection's send buffer and drained
     with non-blocking writes — a slow reader leaves bytes pending and
     the loop polls writability instead of blocking; past a high-water
     mark the loop also stops *reading* from that connection
     (backpressure instead of unbounded buffering);
   - service requests ([Get_stamp], queued [Get_range] anchors) are
     submitted to the MPSC shards and completed via the non-blocking
     {!Svc.Service.Make.poll}, many tickets multiplexed per domain;
   - replies stay FIFO per connection: anything that completes while
     earlier requests are still in flight queues behind them.

   Nothing polls.  A pass that made no progress parks the loop's
   doorbell ({!Svc.Service.park}), re-polls the head of every queue and
   only then blocks in [select] — without a timeout, or until the
   earliest owed lease's deadline.  The shard worker rings the doorbell
   (one byte into the loop's self-pipe) after publishing a chunk that
   holds one of the loop's tickets, but only while the loop is parked;
   because the park precedes the re-poll and the publish precedes the
   ring, one side always sees the other (DESIGN.md §15).  The anchor
   refresher parks on a condition variable until the first lease
   request, and its first publish rings every loop.

   Every TCP socket runs with [TCP_NODELAY]: with Nagle on, the second
   write of a burst's replies waits for the peer's delayed ACK (40 ms).

   The accept loop hands each new fd to a loop round-robin (connection
   id mod io_threads) through a lock-free mailbox and wakes it via the
   same self-pipe.

   Protocol: both frame versions are served, each answered in the
   version it arrived in.  v2 stamps are encoded with the
   implementation's {!Codec} straight into the send buffer (zero
   minor-heap words per stamp); v1 peers still get Marshal blobs —
   encoding Marshal is safe, and the one request that would force the
   server to *decode* Marshal from the network (v1 [Compare]) is
   refused.

   Read fast path: [Ping]/[Stats]/[Compare] never touch the submit
   queue, and for long-lived implementations [Get_range] lease anchors
   are served from a cached timestamp snapshot maintained by a
   dedicated refresher domain (single writer, readers race-free via one
   [Atomic] load).  Soundness: the cached anchor executed *before* the
   lease's ticks are reserved — the same reserve-after-execution
   discipline as PR 9, with a staler anchor.  A stale start tick only
   shrinks the set of happens-before edges the checker asserts, and any
   operation that completed before the grant carries an end tick newer
   than the cached anchor's start tick, so no false ordering is ever
   claimed (DESIGN.md §15).

   Epoch-range leases otherwise follow PR 9's discipline: execute one
   anchor getTS through the service, *then* reserve k fresh end ticks
   with one fetch-and-add (Service.reserve_ticks). *)

let sleep_us us =
  try Unix.sleepf (float_of_int us *. 1e-6)
  with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Stop reading from a connection whose peer is not draining responses. *)
let out_hiwater = 1 lsl 16

(* Cap on queued requests per connection before reads pause. *)
let max_inflight = 1024

module Make (T : Timestamp.Intf.S) = struct
  module S = Svc.Service.Make (T)

  let codec : T.result Codec.t = Codec.for_impl (module T)

  (* Per-slot counter group; connections hash onto slots (conn id mod
     #slots) so the gauge count stays fixed for telemetry — `ts_cli top`
     stays readable at hundreds of connections — while slot ids are
     reused as connections come and go.  [k_conns] counts *live*
     connections on the slot (decremented on close). *)
  type slot = {
    k_conns : int Atomic.t;
    k_requests : int Atomic.t;
    k_stamps : int Atomic.t;
    k_leases : int Atomic.t;
    k_bytes_in : int Atomic.t;
    k_bytes_out : int Atomic.t;
  }

  let make_slot () =
    { k_conns = Atomic.make 0;
      k_requests = Atomic.make 0;
      k_stamps = Atomic.make 0;
      k_leases = Atomic.make 0;
      k_bytes_in = Atomic.make 0;
      k_bytes_out = Atomic.make 0 }

  let bump a n = ignore (Atomic.fetch_and_add a n)

  (* The cached lease anchor: one getTS executed by the refresher
     domain, shared by every fast-path lease until the next refresh. *)
  type anchor = {
    a_pid : int;
    a_call : int;
    a_shard : int;
    a_start : int;
    a_ts : T.result;
  }

  (* A reply owed to the peer, FIFO per connection. *)
  type pending =
    | P_stamp of S.ticket  (* complete via S.poll / S.await *)
    | P_range of { tk : S.ticket; k : int }  (* queued lease anchor *)
    | P_wait_anchor of { k : int; deadline : float }
        (* fast path armed before the refresher's first publish: the
           lease is owed as soon as the shared anchor appears — without
           ever taking one of the object's n sessions *)
    | P_resp of Frame.resp  (* already computed, awaiting its turn *)

  type cstate = {
    cv_conn : Conn.t;
    cv_id : int;
    cv_slot : slot;
    cv_bell : Svc.Service.doorbell;  (* its loop's: rung on completions *)
    mutable cv_version : int;  (* latched from the peer's frames *)
    mutable cv_session : S.session option;
    cv_pending : pending Queue.t;
    mutable cv_read_eof : bool;  (* peer done sending: answer, then close *)
    mutable cv_dead : bool;  (* socket gone: drop immediately *)
    mutable cv_last_in : int;
    mutable cv_last_out : int;
  }

  type loop = {
    lp_incoming : (int * Unix.file_descr) list Atomic.t;
    lp_wake_r : Unix.file_descr;
    lp_wake_w : Unix.file_descr;
    lp_bell : Svc.Service.doorbell;  (* writes one byte to [lp_wake_w] *)
    lp_scratch : Bytes.t;  (* the loop's wake-pipe drain buffer *)
    lp_live : int Atomic.t;
  }

  type t = {
    svc : S.t;
    info : Frame.server_info;
    listen_fd : Unix.file_descr;
    addr : Conn.addr;
    slots : slot array;
    loops : loop array;
    mutable loop_doms : unit Domain.t list;
    mutable accept_dom : unit Domain.t option;
    mutable anchor_dom : unit Domain.t option;
    next_conn : int Atomic.t;
    accepted : int Atomic.t;  (* cumulative, for the shutdown summary *)
    read_fast_path : bool;
    anchor_us : int;
    anchor : anchor option Atomic.t;
    anchor_demand : bool Atomic.t;  (* first lease request arms it *)
    demand_m : Mutex.t;  (* the refresher parks on [demand_c] until armed *)
    demand_c : Condition.t;
    domains_spawned : int Atomic.t;
    stop_requested : bool Atomic.t;  (* a client sent Stop *)
    stopping : bool Atomic.t;  (* shutdown underway *)
    stopped : bool Atomic.t;
  }

  let marshal_ts (ts : T.result) = Marshal.to_string ts []

  let codec_ts (ts : T.result) =
    let n = codec.Codec.c_size ts in
    let b = Bytes.create n in
    ignore (codec.Codec.c_put b 0 ts);
    Bytes.unsafe_to_string b

  let blob_ts version ts =
    if version = 1 then marshal_ts ts else codec_ts ts

  let stats_reply t =
    let sr_shards =
      S.stats t.svc |> Array.to_list
      |> List.map (fun (s : S.shard_stats) ->
          { Frame.ss_served = s.served; ss_batches = s.batches;
            ss_max_batch = s.max_batch })
    in
    let sr_conns =
      Array.to_list
        (Array.mapi
           (fun i sl ->
              { Frame.cn_slot = i;
                cn_conns = Atomic.get sl.k_conns;
                cn_requests = Atomic.get sl.k_requests;
                cn_stamps = Atomic.get sl.k_stamps;
                cn_leases = Atomic.get sl.k_leases;
                cn_bytes_in = Atomic.get sl.k_bytes_in;
                cn_bytes_out = Atomic.get sl.k_bytes_out })
           t.slots)
    in
    Frame.Stats_reply { sr_shards; sr_conns }

  (* ------------------------- reply writing ------------------------- *)

  let write_resp_cv cv r =
    Frame.write_resp ~version:cv.cv_version (Conn.send_buffer cv.cv_conn) r

  (* Completed stamp ticket -> response bytes.  The v2 path is the
     zero-allocation hot path: varints and codec bytes straight into the
     send buffer. *)
  let write_stamp_cv cv (sess : S.session) tk =
    if cv.cv_version >= 2 then begin
      let r = S.await tk in
      S.release sess tk;
      Frame.write_stamp_v2 (Conn.send_buffer cv.cv_conn) codec ~pid:r.S.pid
        ~call:r.S.call ~shard:r.S.shard ~start_tick:r.S.start_tick
        ~end_tick:r.S.end_tick r.S.ts
    end
    else begin
      let r = S.await tk in
      S.release sess tk;
      write_resp_cv cv
        (Frame.Stamp
           { w_pid = r.S.pid; w_call = r.S.call; w_shard = r.S.shard;
             w_start_tick = r.S.start_tick; w_end_tick = r.S.end_tick;
             w_ts = marshal_ts r.S.ts })
    end;
    bump cv.cv_slot.k_stamps 1

  let range_resp t cv ~pid ~call ~shard ~start_tick ~k ts =
    let base = S.reserve_ticks t.svc k in
    bump cv.cv_slot.k_leases 1;
    bump cv.cv_slot.k_stamps k;
    Frame.Range
      { g_pid = pid; g_call = call; g_shard = shard;
        g_start_tick = start_tick; g_base = base; g_count = k;
        g_ts = blob_ts cv.cv_version ts }

  (* Drain the head of the FIFO as far as completed work allows.
     Returns [true] if anything was written (progress). *)
  let progress t cv =
    let q = cv.cv_pending in
    let wrote = ref false in
    let continue = ref true in
    while !continue && not (Queue.is_empty q) do
      match Queue.peek q with
      | P_resp r ->
        ignore (Queue.pop q);
        write_resp_cv cv r;
        wrote := true
      | P_stamp tk ->
        if S.poll tk then begin
          ignore (Queue.pop q);
          let sess = Option.get cv.cv_session in
          write_stamp_cv cv sess tk;
          wrote := true
        end
        else continue := false
      | P_range { tk; k } ->
        if S.poll tk then begin
          ignore (Queue.pop q);
          let sess = Option.get cv.cv_session in
          let r = S.await tk in
          S.release sess tk;
          (* reservation strictly after the anchor executed *)
          write_resp_cv cv
            (range_resp t cv ~pid:r.S.pid ~call:r.S.call ~shard:r.S.shard
               ~start_tick:r.S.start_tick ~k r.S.ts);
          wrote := true
        end
        else continue := false
      | P_wait_anchor { k; deadline } -> (
          match Atomic.get t.anchor with
          | Some a ->
            ignore (Queue.pop q);
            write_resp_cv cv
              (range_resp t cv ~pid:a.a_pid ~call:a.a_call ~shard:a.a_shard
                 ~start_tick:a.a_start ~k a.a_ts);
            wrote := true
          | None ->
            if Unix.gettimeofday () > deadline then begin
              ignore (Queue.pop q);
              write_resp_cv cv
                (Frame.Err
                   "lease anchor unavailable (anchor refresher could not \
                    obtain a session)");
              wrote := true
            end
            else continue := false)
    done;
    !wrote

  (* -------------------------- request handling --------------------- *)

  let get_session t cv =
    match cv.cv_session with
    | Some s -> s
    | None ->
      (* lazily: control connections (ping/stats/stop/compare) must not
         consume one of a long-lived object's n sessions *)
      let s = S.open_session ~doorbell:cv.cv_bell t.svc in
      cv.cv_session <- Some s;
      s

  (* The first lease request wakes the parked refresher. *)
  let arm_refresher t =
    Mutex.lock t.demand_m;
    Atomic.set t.anchor_demand true;
    Condition.signal t.demand_c;
    Mutex.unlock t.demand_m

  (* FIFO-preserving reply: immediate only when nothing is in flight. *)
  let reply cv r =
    if Queue.is_empty cv.cv_pending then write_resp_cv cv r
    else Queue.add (P_resp r) cv.cv_pending

  let handle_payload t cv payload =
    bump cv.cv_slot.k_requests 1;
    let err msg = reply cv (Frame.Err msg) in
    let serve_error = function
      | S.Stopped -> err "service is stopping"
      | Invalid_argument msg | Failure msg -> err msg
      | e -> raise e
    in
    match Frame.decode_req payload with
    | Error e ->
      reply cv (Frame.Err (Frame.error_to_string e));
      (* framing is broken: answer what's owed, then close *)
      cv.cv_read_eof <- true
    | Ok (ver, req) -> (
        cv.cv_version <- ver;
        match req with
        | Frame.Ping -> reply cv (Frame.Pong t.info)
        | Frame.Get_stamp -> (
            match
              let sess = get_session t cv in
              S.submit sess
            with
            | tk -> Queue.add (P_stamp tk) cv.cv_pending
            | exception e -> serve_error e)
        | Frame.Get_range k ->
          if k < 1 || k > Frame.max_lease then
            err
              (Printf.sprintf "lease size %d out of range [1, %d]" k
                 Frame.max_lease)
          else begin
            (* Fast path: long-lived anchors can be shared, so serve the
               lease from the cached snapshot without touching the
               submit queue.  One-shot implementations burn a fresh pid
               per anchor and always take the queued path. *)
            if t.read_fast_path && T.kind = `Long_lived then begin
              if not (Atomic.get t.anchor_demand) then arm_refresher t;
              match Atomic.get t.anchor with
              | Some a ->
                reply cv
                  (range_resp t cv ~pid:a.a_pid ~call:a.a_call
                     ~shard:a.a_shard ~start_tick:a.a_start ~k a.a_ts)
              | None ->
                (* armed but not yet published: owe the lease until the
                   refresher's first getTS lands, never taking one of
                   the object's n sessions — so lease-only connections
                   can't race the refresher (or each other) for pids *)
                Queue.add
                  (P_wait_anchor
                     { k; deadline = Unix.gettimeofday () +. 5.0 })
                  cv.cv_pending
            end
            else (
              match
                let sess = get_session t cv in
                S.submit sess
              with
              | tk -> Queue.add (P_range { tk; k }) cv.cv_pending
              | exception e -> serve_error e)
          end
        | Frame.Compare { a; b } ->
          if ver = 1 then
            err "compare requires protocol version 2 (v1 payloads are \
                 Marshal, which this server refuses to decode)"
          else if not codec.Codec.c_safe then
            err "no validating codec for this implementation"
          else (
            match (Codec.decode_exn codec a, Codec.decode_exn codec b) with
            | ta, tb -> reply cv (Frame.Cmp (T.compare_ts ta tb))
            | exception Codec.Malformed _ ->
              err "undecodable timestamp payload")
        | Frame.Stats -> reply cv (stats_reply t)
        | Frame.Stop ->
          reply cv Frame.Stopping;
          Atomic.set t.stop_requested true)

  (* --------------------------- event loop -------------------------- *)

  let sync_bytes cv =
    let bin = Conn.bytes_in cv.cv_conn and bout = Conn.bytes_out cv.cv_conn in
    bump cv.cv_slot.k_bytes_in (bin - cv.cv_last_in);
    cv.cv_last_in <- bin;
    bump cv.cv_slot.k_bytes_out (bout - cv.cv_last_out);
    cv.cv_last_out <- bout

  let close_conn loop cv =
    sync_bytes cv;
    Conn.close cv.cv_conn;
    bump cv.cv_slot.k_conns (-1);
    ignore (Atomic.fetch_and_add loop.lp_live (-1))

  let rec drain_wake_pipe loop =
    match Unix.read loop.lp_wake_r loop.lp_scratch 0 64 with
    | 64 -> drain_wake_pipe loop
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK
                                 | Unix.EINTR), _, _) -> ()

  (* Whether [progress] can move past this queue head right now. *)
  let head_ready t = function
    | P_resp _ -> true
    | P_stamp tk | P_range { tk; _ } -> S.poll tk
    | P_wait_anchor { deadline; _ } ->
      Option.is_some (Atomic.get t.anchor) || Unix.gettimeofday () > deadline

  (* Graceful drain at shutdown: answer everything in flight (the service
     is still running — [stop] joins the loops before stopping it), push
     the bytes out best-effort.  Bounded by a one-second deadline per
     connection; polls with a fixed quantum, being a once-per-server
     path. *)
  let drain_conn t cv =
    let deadline = Unix.gettimeofday () +. 1.0 in
    let rec drain_pending () =
      if not (Queue.is_empty cv.cv_pending)
         && Unix.gettimeofday () < deadline
      then
        if progress t cv then drain_pending ()
        else begin
          sleep_us 50;
          drain_pending ()
        end
    in
    drain_pending ();
    let rec flush_out () =
      if Conn.pending_out cv.cv_conn > 0 && Unix.gettimeofday () < deadline
      then
        match Conn.try_flush cv.cv_conn with
        | `Flushed | `Closed -> ()
        | `Partial ->
          (match Unix.select [] [ Conn.fd cv.cv_conn ] [] 0.05 with
           | _ -> ()
           | exception Unix.Unix_error _ -> ());
          flush_out ()
    in
    try flush_out () with _ -> ()

  let io_loop t loop () =
    let conns : (Unix.file_descr, cstate) Hashtbl.t = Hashtbl.create 32 in
    let adopt (cid, fd) =
      Conn.set_nodelay t.addr fd;
      let conn = Conn.create fd in
      Conn.set_nonblock conn;
      let cv =
        { cv_conn = conn;
          cv_id = cid;
          cv_slot = t.slots.(cid mod Array.length t.slots);
          cv_bell = loop.lp_bell;
          cv_version = Frame.version;
          cv_session = None;
          cv_pending = Queue.create ();
          cv_read_eof = false;
          cv_dead = false;
          cv_last_in = 0;
          cv_last_out = 0 }
      in
      bump cv.cv_slot.k_conns 1;
      ignore (Atomic.fetch_and_add loop.lp_live 1);
      Hashtbl.replace conns fd cv
    in
    let drain_incoming () =
      match Atomic.exchange loop.lp_incoming [] with
      | [] -> ()
      | l -> List.iter adopt (List.rev l)
    in
    (* Parse every complete frame already buffered. *)
    let parse cv =
      let rec go () =
        match Conn.buffered_frame cv.cv_conn with
        | None -> ()
        | Some (Error (`Frame e)) ->
          reply cv (Frame.Err (Frame.error_to_string e));
          cv.cv_read_eof <- true
        | Some (Ok payload) ->
          (match handle_payload t cv payload with
           | () -> ()
           | exception (Unix.Unix_error _ | Sys_error _) ->
             cv.cv_dead <- true);
          if not (cv.cv_read_eof || cv.cv_dead) then go ()
      in
      go ()
    in
    let on_readable fd =
      match Hashtbl.find_opt conns fd with
      | None -> ()
      | Some cv -> (
          match Conn.try_refill cv.cv_conn with
          | `Eof -> cv.cv_read_eof <- true
          | `Would_block -> ()
          | `Data -> parse cv)
    in
    let on_writable fd =
      match Hashtbl.find_opt conns fd with
      | Some cv -> (
          match Conn.try_flush cv.cv_conn with
          | `Closed -> cv.cv_dead <- true
          | `Flushed | `Partial -> ())
      | None -> ()
    in
    (* Per-pass state and the passes over [conns], allocated once: a pass
       allocates only the fd lists [select] takes. *)
    let made_progress = ref false in
    let dead = ref [] in
    let ready = ref false in
    let earliest = ref infinity in  (* first lease-anchor deadline *)
    let rds = ref [] and wrs = ref [] in
    let serve_pass fd cv =
      if cv.cv_dead then dead := (fd, cv) :: !dead
      else begin
        if progress t cv then made_progress := true;
        (* opportunistic flush: most replies leave in one write *)
        if Conn.pending_out cv.cv_conn > 0 then begin
          match Conn.try_flush cv.cv_conn with
          | `Closed -> cv.cv_dead <- true
          | `Flushed | `Partial -> ()
        end;
        sync_bytes cv;
        if cv.cv_dead
           || (cv.cv_read_eof
               && Queue.is_empty cv.cv_pending
               && Conn.pending_out cv.cv_conn = 0)
        then dead := (fd, cv) :: !dead
      end
    in
    let reap (fd, cv) =
      Hashtbl.remove conns fd;
      close_conn loop cv
    in
    let interest_pass fd cv =
      if not (Queue.is_empty cv.cv_pending) then begin
        let p = Queue.peek cv.cv_pending in
        if head_ready t p then ready := true;
        match p with
        | P_wait_anchor { deadline; _ } ->
          if deadline < !earliest then earliest := deadline
        | P_resp _ | P_stamp _ | P_range _ -> ()
      end;
      if
        (not cv.cv_read_eof)
        && Conn.pending_out cv.cv_conn < out_hiwater
        && Queue.length cv.cv_pending < max_inflight
      then rds := fd :: !rds;
      if Conn.pending_out cv.cv_conn > 0 then wrs := fd :: !wrs
    in
    let check_alive _ cv =
      match Unix.fstat (Conn.fd cv.cv_conn) with
      | exception _ -> cv.cv_dead <- true
      | _ -> ()
    in
    let finished = ref false in
    while not !finished do
      drain_incoming ();
      if Atomic.get t.stopping then begin
        Hashtbl.iter
          (fun _ cv ->
             if not cv.cv_dead then drain_conn t cv;
             close_conn loop cv)
          conns;
        Hashtbl.reset conns;
        finished := true
      end
      else begin
        made_progress := false;
        dead := [];
        Hashtbl.iter serve_pass conns;
        List.iter reap !dead;
        (* Park-and-ring.  When this pass did nothing, announce the park
           before the interest pass re-polls every queue head: a ticket
           published before the announcement is seen by the re-poll, one
           published after it makes the worker ring the wake pipe (see
           Svc.Service.doorbell).  Either way [select] cannot sleep
           through a completion, so it blocks with no timeout — or until
           the earliest lease-anchor deadline. *)
        if not !made_progress then Svc.Service.park loop.lp_bell;
        ready := !made_progress;
        earliest := infinity;
        rds := [ loop.lp_wake_r ];
        wrs := [];
        Hashtbl.iter interest_pass conns;
        let timeout =
          if !ready then 0.0
          else if !earliest = infinity then -1.0
          else Float.max 0.0 (!earliest -. Unix.gettimeofday ())
        in
        match Unix.select !rds !wrs [] timeout with
        | exception Unix.Unix_error (((Unix.EINTR | Unix.EBADF) as e), _, _) ->
          Svc.Service.unpark loop.lp_bell;
          (* EBADF: a peer died between iterations; sweep on the next pass *)
          if e = Unix.EBADF then Hashtbl.iter check_alive conns
        | rds', wrs', _ ->
          Svc.Service.unpark loop.lp_bell;
          if List.memq loop.lp_wake_r rds' then drain_wake_pipe loop;
          List.iter on_writable wrs';
          List.iter on_readable rds'
      end
    done;
    (* Late arrivals raced shutdown: refuse them cleanly. *)
    List.iter
      (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
      (Atomic.exchange loop.lp_incoming [])

  (* ------------------------- anchor refresher ---------------------- *)

  (* Single-writer cache of a lease anchor.  The domain parks until the
     first Get_range arms [anchor_demand] (so a server that never grants
     leases never consumes a session), then refreshes every [anchor_us].
     The first publish rings every loop: a lease owed before it
     ([P_wait_anchor]) is waiting on exactly that. *)
  let refresher t () =
    Mutex.lock t.demand_m;
    while not (Atomic.get t.stopping || Atomic.get t.anchor_demand) do
      Condition.wait t.demand_c t.demand_m
    done;
    Mutex.unlock t.demand_m;
    if not (Atomic.get t.stopping) then begin
      (* Sessions can be transiently exhausted (stamp connections hold
         theirs until close), so keep retrying: a waiting fast-path
         lease errors out after its own deadline if no pid ever frees. *)
      let rec obtain () =
        if Atomic.get t.stopping then None
        else
          match S.open_session t.svc with
          | s -> Some s
          | exception _ ->
            sleep_us 10_000;
            obtain ()
      in
      match obtain () with
      | None -> ()
      | Some sess ->
        let live = ref true in
        while !live && not (Atomic.get t.stopping) do
          (match S.get_ts sess with
           | r ->
             let first = Option.is_none (Atomic.get t.anchor) in
             Atomic.set t.anchor
               (Some
                  { a_pid = r.S.pid; a_call = r.S.call; a_shard = r.S.shard;
                    a_start = r.S.start_tick; a_ts = r.S.ts });
             if first then
               Array.iter (fun l -> Svc.Service.ring l.lp_bell) t.loops
           | exception S.Stopped -> live := false
           | exception _ -> ());
          sleep_us t.anchor_us
        done
    end

  (* -------------------------- accept loop -------------------------- *)

  let wake_byte = Bytes.make 1 '!'

  (* One byte into a loop's self-pipe; a full pipe means it is already
     awake. *)
  let ring_pipe w =
    try ignore (Unix.write w wake_byte 0 1) with Unix.Unix_error _ -> ()

  let wake loop = ring_pipe loop.lp_wake_w

  (* select-with-timeout rather than a blocking accept: the loop polls
     the stopping flag, so shutdown never races a close() against a
     domain blocked in accept(2). *)
  let accept_loop t () =
    let dispatch fd =
      let cid = Atomic.fetch_and_add t.next_conn 1 in
      ignore (Atomic.fetch_and_add t.accepted 1);
      let loop = t.loops.(cid mod Array.length t.loops) in
      let rec push () =
        let old = Atomic.get loop.lp_incoming in
        if
          not
            (Atomic.compare_and_set loop.lp_incoming old ((cid, fd) :: old))
        then push ()
      in
      push ();
      wake loop
    in
    let rec loop () =
      if Atomic.get t.stopping then ()
      else
        match Unix.select [ t.listen_fd ] [] [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error _ -> ()
        | [], _, _ -> loop ()
        | _ -> (
            match Unix.accept ~cloexec:true t.listen_fd with
            | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
              ()
            | exception Unix.Unix_error _ -> loop ()
            | fd, _ ->
              if Atomic.get t.stopping then (
                try Unix.close fd with Unix.Unix_error _ -> ())
              else begin
                dispatch fd;
                loop ()
              end)
    in
    loop ()

  (* ---------------------------- lifecycle -------------------------- *)

  let spawn t f =
    ignore (Atomic.fetch_and_add t.domains_spawned 1);
    Domain.spawn f

  let start ?(batch_max = 64) ?(shards = 1) ?(backend = `Boxed)
      ?(telemetry = false) ?(conn_slots = 4) ?io_threads
      ?(read_fast_path = true) ?(anchor_us = 200) ~addr ~n () =
    if conn_slots <= 0 then
      invalid_arg "Server.start: conn_slots must be positive";
    let io_threads = match io_threads with Some k -> k | None -> shards in
    if io_threads <= 0 then
      invalid_arg "Server.start: io_threads must be positive";
    if anchor_us <= 0 then
      invalid_arg "Server.start: anchor_us must be positive";
    let svc = S.start ~batch_max ~shards ~backend ~telemetry ~n () in
    (match addr with
     | Conn.Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
     | Conn.Tcp _ -> ());
    let listen_fd =
      Unix.socket ~cloexec:true (Conn.domain_of addr) Unix.SOCK_STREAM 0
    in
    (match addr with
     | Conn.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
     | Conn.Unix_path _ -> ());
    (try
       Unix.bind listen_fd (Conn.sockaddr_of addr);
       Unix.listen listen_fd 256
     with e ->
       (try Unix.close listen_fd with Unix.Unix_error _ -> ());
       S.stop svc;
       raise e);
    let mk_loop _ =
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      { lp_incoming = Atomic.make [];
        lp_wake_r = r;
        lp_wake_w = w;
        lp_bell = Svc.Service.doorbell (fun () -> ring_pipe w);
        lp_scratch = Bytes.create 64;
        lp_live = Atomic.make 0 }
    in
    let use_fast_path = read_fast_path && T.kind = `Long_lived in
    let t =
      { svc;
        info =
          { Frame.si_impl = T.name;
            si_kind = T.kind;
            si_n = n;
            si_shards = shards;
            si_backend = Multicore.Backend.choice_tag backend;
            si_codec = Codec.name codec };
        listen_fd;
        addr;
        slots = Array.init conn_slots (fun _ -> make_slot ());
        loops = Array.init io_threads mk_loop;
        loop_doms = [];
        accept_dom = None;
        anchor_dom = None;
        next_conn = Atomic.make 0;
        accepted = Atomic.make 0;
        read_fast_path = use_fast_path;
        anchor_us;
        anchor = Atomic.make None;
        anchor_demand = Atomic.make false;
        demand_m = Mutex.create ();
        demand_c = Condition.create ();
        domains_spawned = Atomic.make 0;
        stop_requested = Atomic.make false;
        stopping = Atomic.make false;
        stopped = Atomic.make false }
    in
    t.loop_doms <-
      Array.to_list (Array.map (fun l -> spawn t (io_loop t l)) t.loops);
    if use_fast_path then t.anchor_dom <- Some (spawn t (refresher t));
    t.accept_dom <- Some (spawn t (accept_loop t));
    t

  let bound_addr t =
    match Unix.getsockname t.listen_fd with
    | Unix.ADDR_UNIX p -> Conn.Unix_path p
    | Unix.ADDR_INET (a, p) ->
      Conn.Tcp { host = Unix.string_of_inet_addr a; port = p }

  let info t = t.info

  let stop_requested t = Atomic.get t.stop_requested

  let domains t = Atomic.get t.domains_spawned

  let io_threads t = Array.length t.loops

  let live_conns t =
    Array.fold_left (fun acc l -> acc + Atomic.get l.lp_live) 0 t.loops

  let wait ?(poll_us = 10_000) t =
    while not (Atomic.get t.stop_requested || Atomic.get t.stopping) do
      sleep_us poll_us
    done

  let stop t =
    if Atomic.compare_and_set t.stopped false true then begin
      Atomic.set t.stopping true;
      (match t.accept_dom with Some d -> Domain.join d | None -> ());
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (match t.addr with
       | Conn.Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
       | Conn.Tcp _ -> ());
      (* wake every loop so it sees the flag, then join: loops drain
         their pending replies and close their connections *)
      Array.iter wake t.loops;
      List.iter Domain.join t.loop_doms;
      t.loop_doms <- [];
      Mutex.lock t.demand_m;
      Condition.broadcast t.demand_c;
      Mutex.unlock t.demand_m;
      (match t.anchor_dom with Some d -> Domain.join d | None -> ());
      t.anchor_dom <- None;
      Array.iter
        (fun l ->
           (try Unix.close l.lp_wake_r with Unix.Unix_error _ -> ());
           try Unix.close l.lp_wake_w with Unix.Unix_error _ -> ())
        t.loops;
      S.stop t.svc
    end

  (* --------------------------- telemetry --------------------------- *)

  let requests_total t =
    Array.fold_left (fun acc sl -> acc + Atomic.get sl.k_requests) 0 t.slots

  let conns_total t = Atomic.get t.accepted

  let net_sources t =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i sl ->
               let g name a =
                 (Printf.sprintf "c%d.%s" i name,
                  fun () -> float_of_int (Atomic.get a))
               in
               [ g "conns" sl.k_conns;
                 g "requests" sl.k_requests;
                 g "stamps" sl.k_stamps;
                 g "leases" sl.k_leases;
                 g "bytes_in" sl.k_bytes_in;
                 g "bytes_out" sl.k_bytes_out ])
            t.slots))

  let attach_telemetry t ts =
    S.attach_telemetry t.svc ts;
    Obs.Timeseries.add_meta ts "addr"
      (Obs.Json.String (Conn.addr_to_string t.addr));
    Obs.Timeseries.add_meta ts "conn_slots"
      (Obs.Json.Int (Array.length t.slots));
    Obs.Timeseries.add_meta ts "io_threads"
      (Obs.Json.Int (Array.length t.loops));
    List.iter
      (fun (name, f) -> Obs.Timeseries.add_source ts ~name f)
      (net_sources t)

  let service_stats t = S.stats t.svc
end
