(* The repository's benchmark: three workloads over the serving stack
   registers -> Multicore.Exec -> Svc.Service -> Net.Server -> Net.Client,
   timed from outside through each layer's public functions.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --ts-cli EXE
     main.exe --selftest --ts-cli EXE

   --trace 0 prints the end-to-end metrics; --trace 1 runs the rung ladder
   (Direct -> Inproc -> wire) with sampled spans and prints the per-layer
   metrics.  Every stamp is gated ({!Gate}); the last stdout line is one
   JSON object.  Exit status 1 on a correctness violation or an invalid
   (generator-late) run, 2 on a usage or set-up error.

   The benchmark has its own closed- and open-loop load generators, not
   Svc.Loadgen: Loadgen's latency ends at the service-side completion
   stamp (shared by a whole chunk, without the caller's wakeup), and the
   instrument must not change when Loadgen does. *)

open Probe
module Client = Svc.Client

(* ------------------------------------------------------------------ *)
(* workload shapes                                                      *)

let sessions = 2 (* sessions (svc-* ) / connections (wire-mixed) *)

let window = 8 (* closed-loop pipeline window per session *)

let chunk = 65_536 (* stamps gated at a time, bounds memory *)

(* Each run measures object instances (a fresh service or server each)
   for [round_s] seconds apiece and reports the median of the per-round
   figures: the rounds differ more than their sample counts explain
   (thread placement, vCPU wakeups), so the run needs many of them. *)
let round_s = 1.25

let rounds_in seconds = max 1 (int_of_float (Float.round (seconds /. round_s)))

let sqrt_n = 20_000

let wire_n = 64 (* long-lived pids: room for reconnects *)

let stamp_rate = 2000. (* wire-mixed offered load, per second *)

let compare_rate = 5000.

(* generator lateness p99 above this makes a run invalid: well above the
   pacer's own overshoot, well below the 40 ms TCP stalls it must resolve *)
let lag_bound_us = 5000.

let trace_every = 64 (* one sampled op span per this many ops *)

type workload = {
  w_name : string;
  w_impl : string;
  w_n : int;
  w_wire : bool;
}

let workloads =
  [ { w_name = "svc-lamport"; w_impl = "lamport-longlived"; w_n = sessions;
      w_wire = false };
    { w_name = "svc-sqrt"; w_impl = "sqrt-oneshot"; w_n = sqrt_n;
      w_wire = false };
    { w_name = "wire-mixed"; w_impl = "lamport-longlived"; w_n = wire_n;
      w_wire = true } ]

(* ------------------------------------------------------------------ *)
(* measurement state                                                    *)

type acc = {
  lat : Hist.t;  (* stamp latency, ns *)
  cmp : Hist.t;  (* compare_remote latency, ns *)
  lag : Hist.t;  (* open-loop generator lateness, ns *)
  mutable stamps : int;
  mutable attempted : int;
  mutable failed : int;
  mutable over_10ms : int;
  mutable measured_ns : int;
  mutable cpu_s : float;  (* all processes, measured windows only *)
  mutable setups : float list;
  mutable rss_mb : float list;
  mutable check_ns : int;
  mutable checked : int;
  mutable pairs : int;
  mutable violation : string option;
}

let new_acc () =
  { lat = Hist.create (); cmp = Hist.create (); lag = Hist.create ();
    stamps = 0; attempted = 0; failed = 0; over_10ms = 0;
    measured_ns = 0; cpu_s = 0.; setups = []; rss_mb = []; check_ns = 0;
    checked = 0; pairs = 0; violation = None }

let violate acc msg = if acc.violation = None then acc.violation <- Some msg

let record acc h ns =
  Hist.add h ns;
  if ns > 10_000_000 then acc.over_10ms <- acc.over_10ms + 1

(* spans of the traced run: kept in memory, written at the end *)
let tracer : Obs.Trace.t option ref = ref None

let with_span name f =
  match !tracer with
  | None -> f ()
  | Some tr ->
    Obs.Trace.span_begin tr ~name;
    Fun.protect ~finally:(fun () -> Obs.Trace.span_end tr ~name) f

let sampled_op name count dur_ns =
  match !tracer with
  | Some tr when count mod trace_every = 0 ->
    let dur_us = float_of_int dur_ns /. 1e3 in
    Obs.Trace.complete tr ~name ~start_us:(Obs.Trace.now_us tr -. dur_us)
      ~dur_us
  | _ -> ()

(* growable stamp buffer *)
type 'a vec = { mutable a : 'a array; mutable n : int }

let vec () = { a = [||]; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (max 1024 (2 * v.n)) x in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let gate acc g v =
  let t0 = now_ns () in
  let p0 = g.Gate.pairs in
  with_span "checker.gate" (fun () -> Gate.check g v.a v.n);
  acc.check_ns <- acc.check_ns + (now_ns () - t0);
  acc.checked <- acc.checked + v.n;
  acc.pairs <- acc.pairs + (g.Gate.pairs - p0);
  Option.iter (violate acc) g.Gate.violation;
  v.n <- 0

(* ------------------------------------------------------------------ *)
(* the closed loop: [window] requests in flight per handle, the next
   handle to complete drawn from the seeded generator (so sessions drift
   apart as independent callers do), each stamp compared with the latest
   stamp completed before it was submitted — a happens-before pair, so
   [compare] must hold.  A transport failure counts the op as failed and
   replaces the handle with [reconnect]'s.                             *)

let transport_error = function
  | Client.Error _ | Unix.Unix_error _ -> true
  | _ -> false

module Closed (C : Client.S) = struct
  let run ~rng ~acc ~op ~(handles : C.t array) ~reconnect ~window ~deadline
      ~budget ~(out : C.result Client.stamp vec) ~sample =
    let k = Array.length handles in
    let qs = Array.init k (fun _ -> Queue.create ()) in
    let submitted = ref 0 and inflight = ref 0 and last = ref None in
    let fail h =
      acc.failed <- acc.failed + 1;
      handles.(h) <- reconnect handles.(h)
    in
    let submit h =
      let t0 = now_ns () in
      incr submitted;
      acc.attempted <- acc.attempted + 1;
      match C.stamp_async handles.(h) with
      | th ->
        incr inflight;
        Queue.push (t0, th, !last) qs.(h)
      | exception e when transport_error e -> fail h
    in
    for h = 0 to k - 1 do
      for _ = 1 to window do
        if !submitted < budget then submit h
      done
    done;
    let stopping = ref false in
    let rec pick h = if Queue.is_empty qs.(h) then pick ((h + 1) mod k) else h in
    let complete h s t0 before =
      let t1 = now_ns () in
      record acc acc.lat (t1 - t0);
      acc.stamps <- acc.stamps + 1;
      sampled_op op acc.stamps (t1 - t0);
      (match before with
       | None -> ()
       | Some b ->
         if not (C.compare handles.(h) b s) then
           violate acc
             (Printf.sprintf "p%d.%d completed before p%d.%d began, but \
                              compare is false"
                b.Client.st_pid b.st_call s.st_pid s.st_call));
      push out s;
      last := Some s;
      if acc.stamps land 63 = 0 then sample ();
      if t1 >= deadline then stopping := true
    in
    while !inflight > 0 || ((not !stopping) && !submitted < budget) do
      if !inflight = 0 then begin
        (* every submission so far failed *)
        if now_ns () >= deadline then stopping := true
        else submit (Random.State.int rng k)
      end
      else begin
        let h = pick (Random.State.int rng k) in
        let t0, th, before = Queue.pop qs.(h) in
        decr inflight;
        (match th () with
         | s -> complete h s t0 before
         | exception e when transport_error e -> fail h);
        if (not !stopping) && !submitted < budget then submit h
      end
    done
end

(* ------------------------------------------------------------------ *)
(* the wire server child: `ts_cli serve --listen tcp:127.0.0.1:PORT`   *)

let ts_cli = ref "_build/default/bin/ts_cli.exe"

let children : int list ref = ref []

let reap pid =
  let deadline = now_ns () + 5_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_ns () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let () =
  let quit _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let free_port () =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
       Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
       match Unix.getsockname s with
       | Unix.ADDR_INET (_, p) -> p
       | _ -> failwith "free_port")

let read_line_timeout fd secs =
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
            Buffer.add_char buf (Bytes.get b 0);
            go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type server = { sv_pid : int; sv_addr : Net.Conn.addr; sv_out : Unix.file_descr }

let spawn_server ~impl ~n =
  let rec attempt k =
    let port = free_port () in
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    let args =
      [| !ts_cli; "serve"; "-i"; impl; "-n"; string_of_int n; "--shards"; "1";
         "--io-threads"; "1"; "--listen";
         Printf.sprintf "tcp:127.0.0.1:%d" port |]
    in
    let pid = Unix.create_process !ts_cli args null w Unix.stderr in
    Unix.close w;
    Unix.close null;
    children := pid :: !children;
    match read_line_timeout r 20. with
    | Some l when String.length l > 7 && String.sub l 0 7 = "serving" ->
      { sv_pid = pid; sv_addr = Net.Conn.Tcp { host = "127.0.0.1"; port };
        sv_out = r }
    | _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid;
      Unix.close r;
      (* the probed port can be taken before the server binds it *)
      if k < 5 then attempt (k + 1)
      else failwith ("cannot start " ^ !ts_cli ^ " serve")
  in
  attempt 1

(* the domains a `ts_cli serve` child runs: main, the service shard, then
   (Net.Server.domains) the I/O loop, the anchor refresher for long-lived
   objects, and the accept loop — each with the runtime's backup thread *)
let server_threads ~long_lived = 2 * (1 + 1 + 1 + 1 + if long_lived then 1 else 0)

(* The I/O loop thread by spawn order: the first domain after the shard
   worker.  Threads appear as main, shard, main's backup thread (started
   by the first Domain.spawn), the shard's backup, then one domain and
   its backup at a time.  Checked against the thread that made the most
   read/write syscalls, which only the I/O loop does in bulk. *)
let io_thread pid s0 s1 =
  let busiest =
    List.fold_left
      (fun (best, n) (tid, _) ->
         let _, y = task_delta s0 s1 tid in
         if y > n then (Some tid, y) else (best, n))
      (None, -1) s1.sn_tasks
  in
  match List.filter (( <> ) pid) (List.map fst s1.sn_tasks) with
  | _shard :: _main_backup :: _shard_backup :: io :: _
    when fst busiest = Some io ->
    Some io
  | _ -> None

let pace_guard_ns = 30_000

(* sleep to just before [target], then spin the rest *)
let wait_until target =
  if target - now_ns () > pace_guard_ns then
    sleep_until_ns (target - pace_guard_ns);
  while now_ns () < target do
    Domain.cpu_relax ()
  done

(* The open-loop generator: Poisson arrivals at [rate] from [start] until
   [deadline].  [send due] issues every op whose intended send time is due
   and times each from that intended time, so a stall is charged to the
   ops it delayed.  [lag] records the generator's own lateness: how long
   after an op was due, and the generator was free, it actually sent. *)
let open_loop ~rng ~rate ~start ~deadline ~lag send =
  set_timerslack_ns 1;
  let next = ref (start + exp_gap_ns rng rate) and free_at = ref start in
  while !next < deadline do
    wait_until !next;
    let now = now_ns () in
    Hist.add lag (now - max !next !free_at);
    let due = ref [] in
    while !next <= now do
      due := !next :: !due;
      next := !next + exp_gap_ns rng rate
    done;
    send (List.rev !due);
    free_at := now_ns ()
  done

(* the time [f] takes, recorded as one set-up *)
let setup acc f =
  let t0 = now_ns () in
  let x = f () in
  acc.setups <- (float_of_int (now_ns () - t0) /. 1e9) :: acc.setups;
  x

(* ------------------------------------------------------------------ *)
(* per-implementation workloads                                         *)

type svc_counters = {
  mutable w_cpu_ns : int;
  mutable w_ctx : int;
  mutable w_wall_ns : int;
  mutable served : int;
  mutable batches : int;
  mutable depth_sum : float;
  mutable depth_n : int;
}

type net_counters = {
  mutable s_cpu_ns : int;
  mutable s_io_cpu_ns : int;
  mutable s_sys_s : float;
  mutable s_syscalls : int;
  mutable s_ctx : int;
  mutable s_bytes : int;
  mutable s_requests : int;
  mutable s_served : int;
  mutable s_batches : int;
  mutable c_syscalls : int;
  mutable ops : int;
  mutable layout_ok : bool;
}

let new_svc () =
  { w_cpu_ns = 0; w_ctx = 0; w_wall_ns = 0; served = 0; batches = 0;
    depth_sum = 0.; depth_n = 0 }

let new_net () =
  { s_cpu_ns = 0; s_io_cpu_ns = 0; s_sys_s = 0.; s_syscalls = 0; s_ctx = 0;
    s_bytes = 0; s_requests = 0; s_served = 0; s_batches = 0; c_syscalls = 0;
    ops = 0; layout_ok = true }

let self_syscalls () = syscalls "/proc/self/io"

module Make (T : Timestamp.Intf.S) = struct
  module S = Svc.Service.Make (T)
  module In = Client.Inproc (T)
  module Dir = Client.Direct (T)
  module Wire = Net.Client.Make (T)
  module Closed_in = Closed (In)
  module Closed_dir = Closed (Dir)
  module Closed_wire = Closed (Wire)

  let one_shot = T.kind = `One_shot

  (* Drive one object instance in chunks of at most [chunk] stamps until
     [round_ns] has been measured or [budget] stamps are done, gating each
     chunk outside the measured window. *)
  let chunks ~acc ~round_ns ~budget ~around run =
    let g = Gate.create (module T) in
    let out = vec () and measured = ref 0 and done_ = ref 0 in
    while !measured < round_ns && !done_ < budget do
      let b = min chunk (budget - !done_) in
      let c0 = self_cpu_s () and t0 = now_ns () in
      around (fun () ->
          run ~deadline:(t0 + round_ns - !measured) ~budget:b ~out);
      let dt = now_ns () - t0 in
      acc.cpu_s <- acc.cpu_s +. (self_cpu_s () -. c0);
      acc.measured_ns <- acc.measured_ns + dt;
      measured := !measured + dt;
      done_ := !done_ + out.n;
      gate acc g out
    done

  (* one service instance: [sessions] sessions x [window] in flight *)
  let inproc_instance ~rng ~acc ~(svc_c : svc_counters option) ~telemetry
      ~sessions ~window ~n ~round_ns =
    let tids0 = tasks self_pid in
    let svc, hs =
      setup acc (fun () ->
          let svc = S.start ~shards:1 ~backend:`Boxed ~telemetry ~n () in
          (svc, Array.init sessions (fun _ -> In.connect svc)))
    in
    let worker =
      List.filter (fun t -> not (List.mem t tids0)) (tasks self_pid)
    in
    let depth =
      if telemetry then List.assoc_opt "s0.depth" (S.telemetry_sources svc)
      else None
    in
    let sample () =
      match (depth, svc_c) with
      | Some d, Some c ->
        c.depth_sum <- c.depth_sum +. d ();
        c.depth_n <- c.depth_n + 1
      | _ -> ()
    in
    let around f =
      match svc_c with
      | None -> f ()
      | Some c ->
        let cpu () =
          List.fold_left (fun a t -> a + task_cpu_ns self_pid t) 0 worker
        in
        let ctx () =
          List.fold_left (fun a t -> a + task_ctx self_pid t) 0 worker
        in
        let c0 = cpu () and x0 = ctx () and t0 = now_ns () in
        f ();
        c.w_wall_ns <- c.w_wall_ns + (now_ns () - t0);
        c.w_cpu_ns <- c.w_cpu_ns + (cpu () - c0);
        c.w_ctx <- c.w_ctx + (ctx () - x0)
    in
    Fun.protect
      ~finally:(fun () -> S.stop svc)
      (fun () ->
         chunks ~acc ~round_ns
           ~budget:(if one_shot then n else max_int)
           ~around
           (Closed_in.run ~rng ~acc ~op:"svc.stamp" ~handles:hs
              ~reconnect:Fun.id ~window ~sample));
    Option.iter
      (fun c ->
         Array.iter
           (fun (st : S.shard_stats) ->
              c.served <- c.served + st.served;
              c.batches <- c.batches + st.batches)
           (S.stats svc))
      svc_c

  (* one acc per instance until [seconds] are measured; a one-shot
     instance also ends when its [n] process ids are used up *)
  let instances ~seconds ~rounds f =
    let total = int_of_float (seconds *. 1e9) in
    let measured = ref 0 and accs = ref [] in
    (* a new round only when at least half a round is left to measure *)
    while !measured < total - (total / rounds / 2) do
      let acc = new_acc () in
      f ~acc ~round:(List.length !accs)
        ~round_ns:(min (total / rounds) (total - !measured));
      measured := !measured + acc.measured_ns;
      accs := acc :: !accs
    done;
    List.rev !accs

  let inproc ~rng ~svc_c ~telemetry ~sessions ~window ~n ~seconds ~rounds =
    instances ~seconds ~rounds (fun ~acc ~round:_ ~round_ns ->
        inproc_instance ~rng ~acc ~svc_c ~telemetry ~sessions ~window ~n
          ~round_ns;
        acc.rss_mb <- [ vm_hwm_mb self_pid ])

  (* the Direct rung: getTS executed by the caller, one at a time *)
  let direct ~rng ~n ~seconds =
    instances ~seconds ~rounds:1 (fun ~acc ~round:_ ~round_ns ->
      let hs =
        setup acc (fun () ->
            [| Dir.connect (Dir.create_ctx ~backend:`Boxed ~n ()) |])
      in
      chunks ~acc ~round_ns
        ~budget:(if one_shot then n else max_int)
        ~around:(fun f -> f ())
        (Closed_dir.run ~rng ~acc ~op:"exec.stamp" ~handles:hs
           ~reconnect:Fun.id ~window:1 ~sample:ignore))

  (* exact register operations per getTS, by Exec.run_store_counting, over
     the first [count] calls of a sequential run *)
  let reg_ops ~n =
    let count = if one_shot then min n 1000 else 1000 in
    let regs =
      Multicore.Exec.make_store ~backend:`Boxed ~num:(T.num_registers ~n)
        ~init:(T.init_value ~n)
    in
    let total = ref 0 in
    for i = 0 to count - 1 do
      let pid, call = if one_shot then (i, 0) else (i mod n, i / n) in
      let _, ops =
        Multicore.Exec.run_store_counting ~regs (T.program ~n ~pid ~call)
      in
      total := !total + ops
    done;
    (float_of_int !total /. float_of_int count, count)

  (* a stamp from the middle of a sequential run, for the codec timing *)
  let sample_stamp ~n =
    let ctx = Dir.create_ctx ~backend:`Boxed ~n () in
    let h = Dir.connect ctx in
    let s = ref (Dir.stamp h) in
    for _ = 2 to min n 1000 do
      s := Dir.stamp h
    done;
    !s

  let connect addr = Wire.connect addr

  (* replaces a failed connection; gives up (raises) past [deadline] *)
  let reconnect addr deadline old =
    (try Wire.close old with _ -> ());
    let rec go () =
      match connect addr with
      | c -> c
      | exception (Client.Error _ as e) ->
        if now_ns () > deadline then raise e;
        Unix.sleepf 0.01;
        go ()
    in
    go ()

  let stop_server srv ctl =
    (match ctl with
     | Some c -> (try Wire.stop_server c; Wire.close c with _ -> ())
     | None -> ());
    reap srv.sv_pid;
    Unix.close srv.sv_out

  (* the wire p=1 rung: one connection, one Get_stamp at a time *)
  let wire_closed ~rng ~n ~seconds =
    instances ~seconds ~rounds:1 (fun ~acc ~round:_ ~round_ns ->
      let srv, hs =
        setup acc (fun () ->
            let srv = spawn_server ~impl:T.name ~n in
            (srv, [| connect srv.sv_addr |]))
      in
      let deadline = now_ns () + round_ns + 5_000_000_000 in
      let reconnect = reconnect srv.sv_addr deadline in
      Fun.protect
        ~finally:(fun () -> stop_server srv (Some hs.(0)))
        (fun () ->
           chunks ~acc ~round_ns
             ~budget:(if one_shot then n else max_int)
             ~around:(fun f -> f ())
             (Closed_wire.run ~rng ~acc ~op:"net.stamp" ~handles:hs
                ~reconnect ~window:1 ~sample:ignore)))

  type b_result = {
    b_cmp : Hist.t;
    b_lag : Hist.t;
    b_attempted : int;
    b_failed : int;
    b_done : int;
    b_over : int;
    b_violation : string option;
  }

  (* Connection B: [compare_remote] on two of A's recent stamps, open loop.
     The server's answer must equal the local [compare], and must be true
     when the first stamp completed before the second began. *)
  let b_loop ~rng ~addr ~start ~deadline ~ring ~count conn =
    let cmp = Hist.create () and lag = Hist.create () in
    let attempted = ref 0 and failed = ref 0 and done_ = ref 0
    and over = ref 0 and violation = ref None in
    let conn = ref conn in
    let ring_len = Array.length ring in
    open_loop ~rng ~rate:compare_rate ~start ~deadline ~lag
      (List.iter (fun intended ->
           let c = Atomic.get count in
           let b = ring.((c - 1) mod ring_len) in
           let a =
             ring.((c - 2 - Random.State.int rng (min (c - 1) 32)) mod ring_len)
           in
           incr attempted;
           match Wire.compare_remote !conn a b with
           | r ->
             let lat = now_ns () - intended in
             Hist.add cmp lat;
             if lat > 10_000_000 then incr over;
             incr done_;
             sampled_op "net.compare" !done_ lat;
             let expect = T.compare_ts a.Client.st_ts b.Client.st_ts in
             let hb = a.st_end_tick < b.st_start_tick in
             if (r <> expect || (hb && not r)) && !violation = None then
               violation :=
                 Some
                   (Printf.sprintf
                      "compare_remote p%d.%d p%d.%d = %b, local compare %b"
                      a.st_pid a.st_call b.st_pid b.st_call r expect)
           | exception e when transport_error e ->
             incr failed;
             conn := reconnect addr deadline !conn));
    ( { b_cmp = cmp; b_lag = lag; b_attempted = !attempted;
        b_failed = !failed; b_done = !done_; b_over = !over;
        b_violation = !violation },
      !conn )

  (* one wire-mixed instance: a fresh server, connection A sending
     Get_stamp and connection B sending Compare, both open loop *)
  let mixed_instance ~rng ~acc ~(net_c : net_counters option) ~round_ns ~n
      ~round =
    let srv, a, b =
      setup acc (fun () ->
          let srv = spawn_server ~impl:T.name ~n in
          (srv, ref (connect srv.sv_addr), connect srv.sv_addr))
    in
    let g = Gate.create (module T) and out = vec () in
    let ctl = ref (Some b) in
    Fun.protect
      ~finally:(fun () -> stop_server srv !ctl)
      (fun () ->
         (* two sequential stamps: B has a happens-before pair at once *)
         let w0 = Wire.stamp !a in
         let w1 = Wire.stamp !a in
         push out w0;
         push out w1;
         let ring = Array.make 64 w1 in
         ring.(0) <- w0;
         let count = Atomic.make 2 in
         let rng_b = Random.State.make [| Random.State.bits rng; round |] in
         let s0 = snapshot srv.sv_pid and c0 = self_cpu_s ()
         and sc0 = self_syscalls () in
         let start = now_ns () in
         let deadline = start + round_ns in
         let dom =
           Domain.spawn (fun () ->
               b_loop ~rng:rng_b ~addr:srv.sv_addr ~start ~deadline ~ring
                 ~count b)
         in
         (* wall clock -> monotonic, for per-response arrival times *)
         let off =
           now_ns () - int_of_float (Unix.gettimeofday () *. 1e9)
         in
         (* Connection A: ops that fell due together go out as one
            pipelined burst, as a client behind its schedule sends them *)
         open_loop ~rng ~rate:stamp_rate ~start ~deadline ~lag:acc.lag
           (fun due ->
              let k = List.length due in
              acc.attempted <- acc.attempted + k;
              match
                if k = 1 then [ Wire.stamp !a ] else Wire.stamp_batch !a k
              with
              | stamps ->
                let back = now_ns () in
                List.iter2
                  (fun intended (s : T.result Client.stamp) ->
                     let arrived =
                       if k = 1 then back
                       else min back (int_of_float (s.st_resp_us *. 1e3) + off)
                     in
                     record acc acc.lat (arrived - intended);
                     acc.stamps <- acc.stamps + 1;
                     sampled_op "net.stamp" acc.stamps (arrived - intended);
                     push out s;
                     ring.(Atomic.get count mod Array.length ring) <- s;
                     Atomic.incr count)
                  due stamps
              | exception e when transport_error e ->
                acc.failed <- acc.failed + k;
                a := reconnect srv.sv_addr deadline !a);
         (try Wire.close !a with _ -> ());
         let br, b' = Domain.join dom in
         ctl := Some b';
         let dt = now_ns () - start in
         let s1 = snapshot srv.sv_pid in
         let srv_cpu_ns =
           List.fold_left
             (fun acc' (tid, _) -> acc' + fst (task_delta s0 s1 tid))
             0 s1.sn_tasks
         in
         acc.measured_ns <- acc.measured_ns + dt;
         acc.cpu_s <-
           acc.cpu_s +. (self_cpu_s () -. c0)
           +. (float_of_int srv_cpu_ns /. 1e9);
         acc.rss_mb <- vm_hwm_mb srv.sv_pid :: acc.rss_mb;
         Hist.merge_into acc.cmp br.b_cmp;
         Hist.merge_into acc.lag br.b_lag;
         acc.attempted <- acc.attempted + br.b_attempted;
         acc.failed <- acc.failed + br.b_failed;
         acc.over_10ms <- acc.over_10ms + br.b_over;
         Option.iter (violate acc) br.b_violation;
         (match net_c with
          | None -> ()
          | Some c ->
            let ops = out.n - 2 + br.b_done in
            c.ops <- c.ops + ops;
            c.s_cpu_ns <- c.s_cpu_ns + srv_cpu_ns;
            c.s_sys_s <- c.s_sys_s +. (s1.sn_sys_s -. s0.sn_sys_s);
            c.s_syscalls <- c.s_syscalls + (s1.sn_syscalls - s0.sn_syscalls);
            c.s_ctx <- c.s_ctx + (s1.sn_ctx - s0.sn_ctx);
            c.c_syscalls <- c.c_syscalls + (self_syscalls () - sc0);
            let threads = List.length s1.sn_tasks in
            if threads <> server_threads ~long_lived:(not one_shot) then
              c.layout_ok <- false;
            (match io_thread srv.sv_pid s0 s1 with
             | Some io ->
               c.s_io_cpu_ns <- c.s_io_cpu_ns + fst (task_delta s0 s1 io)
             | None -> c.layout_ok <- false);
            let shards, conns = Wire.stats b' in
            List.iter
              (fun (st : Net.Frame.shard_stat) ->
                 c.s_served <- c.s_served + st.ss_served;
                 c.s_batches <- c.s_batches + st.ss_batches)
              shards;
            List.iter
              (fun (cs : Net.Frame.conn_stat) ->
                 c.s_bytes <- c.s_bytes + cs.cn_bytes_in + cs.cn_bytes_out;
                 c.s_requests <- c.s_requests + cs.cn_requests)
              conns);
         gate acc g out)

  let mixed ~rng ~net_c ~n ~seconds ~rounds =
    instances ~seconds ~rounds (fun ~acc ~round ~round_ns ->
        mixed_instance ~rng ~acc ~net_c ~n ~round ~round_ns)

  (* codec micro-benchmark: ns per Frame.write_stamp_v2 / Codec.decode_exn
     of a stamp this run produced; median of 5 repetitions *)
  let codec_ns (s : T.result Client.stamp) =
    let codec = Net.Codec.for_impl (module T) in
    let buf = Net.Buf.create () in
    let payload =
      let b = Bytes.create (codec.Net.Codec.c_size s.st_ts) in
      ignore (codec.c_put b 0 s.st_ts);
      Bytes.to_string b
    in
    let iters = 200_000 in
    let time f =
      median
        (List.init 5 (fun _ ->
             let t0 = now_ns () in
             for i = 1 to iters do
               f i
             done;
             float_of_int (now_ns () - t0) /. float_of_int iters))
    in
    let enc =
      time (fun i ->
          Net.Buf.clear buf;
          Net.Frame.write_stamp_v2 buf codec ~pid:s.st_pid ~call:i ~shard:0
            ~start_tick:i ~end_tick:(i + 1) s.st_ts)
    in
    let dec = time (fun _ -> ignore (Net.Codec.decode_exn codec payload)) in
    (enc, dec)
end

(* ------------------------------------------------------------------ *)
(* reporting                                                            *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let m m_name m_unit m_value m_n = { m_name; m_value; m_unit; m_n }

let print_metrics ms =
  List.iter
    (fun x ->
       Printf.printf "  %-28s %14.4f %-6s (n=%d)\n" x.m_name x.m_value x.m_unit
         x.m_n)
    ms

let json_line ~correct ~attempted ~failed ms =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
  in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
              (num x.m_value) x.m_unit)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let us_of_ns ns = float_of_int ns /. 1e3

(* all rounds pooled: totals, histograms, the first violation *)
let merge accs =
  let t = new_acc () in
  List.iter
    (fun a ->
       Hist.merge_into t.lat a.lat;
       Hist.merge_into t.cmp a.cmp;
       Hist.merge_into t.lag a.lag;
       t.stamps <- t.stamps + a.stamps;
       t.attempted <- t.attempted + a.attempted;
       t.failed <- t.failed + a.failed;
       t.over_10ms <- t.over_10ms + a.over_10ms;
       t.measured_ns <- t.measured_ns + a.measured_ns;
       t.cpu_s <- t.cpu_s +. a.cpu_s;
       t.setups <- t.setups @ a.setups;
       t.rss_mb <- t.rss_mb @ a.rss_mb;
       t.check_ns <- t.check_ns + a.check_ns;
       t.checked <- t.checked + a.checked;
       t.pairs <- t.pairs + a.pairs;
       Option.iter (violate t) a.violation)
    accs;
  t

(* the end-to-end metrics of one round *)
let round_metrics acc =
  let secs = float_of_int acc.measured_ns /. 1e9 in
  let stamps = max 1 acc.stamps in
  [ m "stamps_per_s" "1/s" (float_of_int acc.stamps /. secs) acc.stamps;
    m "stamp_p50_us" "us" (Hist.quantile_us acc.lat 0.5) (Hist.count acc.lat);
    m "stamp_p99_us" "us" (Hist.quantile_us acc.lat 0.99) (Hist.count acc.lat);
    m "cpu_us_per_stamp" "us" (acc.cpu_s *. 1e6 /. float_of_int stamps)
      acc.stamps;
    m "check_s" "s"
      (float_of_int acc.check_ns /. 1e9 *. 1e5 /. float_of_int (max 1 acc.checked))
      acc.checked;
    m "setup_s" "s" (median acc.setups) (List.length acc.setups);
    m "peak_rss_mb" "MB" (median acc.rss_mb) (List.length acc.rss_mb) ]

(* each metric as the median over rounds, with the pooled sample count *)
let end_to_end rounds =
  match List.map round_metrics rounds with
  | [] -> []
  | first :: _ as per_round ->
    List.mapi
      (fun i x ->
         let col = List.map (fun ms -> List.nth ms i) per_round in
         { x with
           m_value = median (List.map (fun y -> y.m_value) col);
           m_n = List.fold_left (fun s y -> s + y.m_n) 0 col })
      first

let lag_valid acc =
  Hist.count acc.lag = 0 || Hist.quantile_us acc.lag 0.99 <= lag_bound_us

let print_extra acc =
  Printf.printf
    "  fail_ratio %.6f (%d of %d)  stamp_max_us %.1f  compare_max_us %.1f  \
     ops_over_10ms %d  gate: %d stamps, %d hb pairs\n"
    (float_of_int acc.failed /. float_of_int (max 1 acc.attempted))
    acc.failed acc.attempted (us_of_ns acc.lat.Hist.max)
    (us_of_ns acc.cmp.Hist.max) acc.over_10ms acc.checked acc.pairs;
  let deciles h =
    String.concat " "
      (List.map
         (fun q -> Printf.sprintf "%.1f" (Hist.quantile_us h q))
         [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ])
  in
  Printf.printf "  stamp us p10..p99: %s\n" (deciles acc.lat);
  if Hist.count acc.cmp > 0 then
    Printf.printf "  compare_remote us p10..p99: %s (n=%d)\n" (deciles acc.cmp)
      (Hist.count acc.cmp);
  if Hist.count acc.lag > 0 then
    Printf.printf "  generator lag p50 %.1f us, p99 %.1f us (bound %.0f us)\n"
      (Hist.quantile_us acc.lag 0.5) (Hist.quantile_us acc.lag 0.99)
      lag_bound_us

(* ------------------------------------------------------------------ *)
(* runs                                                                 *)

let impl_of name =
  match Timestamp.Registry.find name with
  | Some i -> i
  | None -> (
      match Fuzz.Mutant.find name with
      | Some i -> i
      | None -> failwith ("unknown implementation " ^ name))

(* the workload's own shape, untraced unless the tracer is set *)
let measure_shape (type r) (module T : Timestamp.Intf.S with type result = r)
    w ~rng ~seconds ~telemetry ~svc_c ~net_c =
  let module B = Make (T) in
  let rounds = rounds_in seconds in
  if w.w_wire then B.mixed ~rng ~net_c ~n:w.w_n ~seconds ~rounds
  else
    B.inproc ~rng ~svc_c ~telemetry ~sessions ~window ~n:w.w_n ~seconds
      ~rounds

let run_e2e w ~seed ~seconds =
  let (Timestamp.Registry.Impl (module T)) = impl_of w.w_impl in
  let rng = Random.State.make [| seed |] in
  let rounds =
    measure_shape (module T) w ~rng ~seconds ~telemetry:false ~svc_c:None
      ~net_c:None
  in
  let ms = end_to_end rounds and acc = merge rounds in
  Printf.printf
    "perfbench %s (%s, n=%d) seed %d: %.2f s measured over %d rounds \
     (medians of per-round figures)\n"
    w.w_name T.name w.w_n seed
    (float_of_int acc.measured_ns /. 1e9)
    (List.length rounds);
  print_metrics ms;
  print_extra acc;
  let valid = lag_valid acc in
  if not valid then
    Printf.printf "  INVALID run: generator lag p99 above %.0f us\n"
      lag_bound_us;
  Option.iter (Printf.printf "  VIOLATION: %s\n") acc.violation;
  let correct = acc.violation = None && valid in
  json_line ~correct ~attempted:acc.attempted ~failed:acc.failed ms;
  correct

let out_dir = ".perfbench_out"

let run_traced w ~seed ~seconds =
  let (Timestamp.Registry.Impl (module T)) = impl_of w.w_impl in
  let module B = Make (T) in
  let rng = Random.State.make [| seed |] in
  let slice = seconds /. 8. in
  (* untraced reference first, then everything traced *)
  let untraced =
    merge
      (measure_shape (module T) w ~rng ~seconds:slice ~telemetry:false
         ~svc_c:None ~net_c:None)
  in
  let tr = Obs.Trace.create ~process_name:("perfbench " ^ w.w_name) () in
  tracer := Some tr;
  let rung name f = merge (with_span ("rung." ^ name) f) in
  let minor0 = (Gc.quick_stat ()).Gc.minor_words in
  let direct =
    rung "direct" (fun () -> B.direct ~rng ~n:w.w_n ~seconds:slice)
  in
  let minor_words =
    ((Gc.quick_stat ()).Gc.minor_words -. minor0)
    /. float_of_int (max 1 direct.stamps)
  in
  let inproc1 =
    rung "inproc.p1" (fun () ->
        B.inproc ~rng ~svc_c:None ~telemetry:true ~sessions:1 ~window:1
          ~n:w.w_n ~seconds:slice ~rounds:1)
  in
  let svc_c = new_svc () in
  let shape_svc =
    rung "inproc.shape" (fun () ->
        B.inproc ~rng ~svc_c:(Some svc_c) ~telemetry:true ~sessions ~window
          ~n:w.w_n ~seconds:slice ~rounds:(rounds_in slice))
  in
  let wire1 =
    rung "wire.p1" (fun () -> B.wire_closed ~rng ~n:w.w_n ~seconds:slice)
  in
  let net_c = new_net () in
  let wire_n = if B.one_shot then w.w_n else wire_n in
  let shape_wire =
    rung "wire.mixed" (fun () ->
        B.mixed ~rng ~net_c:(Some net_c) ~n:wire_n ~seconds:slice
          ~rounds:(rounds_in slice))
  in
  tracer := None;
  let traced = if w.w_wire then shape_wire else shape_svc in
  let p50 a = Hist.quantile_us a.lat 0.5 in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let enc, dec = B.codec_ns (B.sample_stamp ~n:w.w_n) in
  let reg_ops, reg_calls = B.reg_ops ~n:w.w_n in
  let ms =
    [ m "exec.us_per_stamp" "us" (p50 direct) direct.stamps;
      m "exec.reg_ops_per_stamp" "count" reg_ops reg_calls;
      m "exec.minor_words_per_stamp" "words" minor_words direct.stamps;
      m "svc.us_per_stamp" "us" (p50 inproc1 -. p50 direct) inproc1.stamps;
      m "svc.stamps_per_batch" "count" (ratio svc_c.served svc_c.batches)
        svc_c.batches;
      m "svc.worker_cpu_us_per_stamp" "us"
        (ratio svc_c.w_cpu_ns shape_svc.stamps /. 1e3) shape_svc.stamps;
      m "svc.worker_busy_ratio" "ratio" (ratio svc_c.w_cpu_ns svc_c.w_wall_ns)
        shape_svc.stamps;
      m "svc.ctx_switches_per_stamp" "count" (ratio svc_c.w_ctx shape_svc.stamps)
        shape_svc.stamps;
      m "svc.queue_depth_mean" "count"
        (svc_c.depth_sum /. float_of_int (max 1 svc_c.depth_n))
        svc_c.depth_n;
      m "server.us_per_stamp" "us" (p50 wire1 -. p50 inproc1) wire1.stamps;
      m "server.io_cpu_us_per_op" "us" (ratio net_c.s_io_cpu_ns net_c.ops /. 1e3)
        net_c.ops;
      m "server.sys_us_per_op" "us"
        (net_c.s_sys_s *. 1e6 /. float_of_int (max 1 net_c.ops)) net_c.ops;
      m "server.syscalls_per_op" "count" (ratio net_c.s_syscalls net_c.ops)
        net_c.ops;
      m "server.ctx_switches_per_op" "count" (ratio net_c.s_ctx net_c.ops)
        net_c.ops;
      m "server.bytes_per_op" "B" (ratio net_c.s_bytes net_c.s_requests)
        net_c.s_requests;
      m "server.stamps_per_batch" "count" (ratio net_c.s_served net_c.s_batches)
        net_c.s_batches;
      m "codec.encode_ns" "ns" enc 5;
      m "codec.decode_ns" "ns" dec 5;
      m "net.compare_p50_us" "us" (Hist.quantile_us shape_wire.cmp 0.5)
        (Hist.count shape_wire.cmp);
      m "net.compare_p99_us" "us" (Hist.quantile_us shape_wire.cmp 0.99)
        (Hist.count shape_wire.cmp);
      m "client.syscalls_per_op" "count" (ratio net_c.c_syscalls net_c.ops)
        net_c.ops;
      m "client.ops_over_10ms" "count" (float_of_int shape_wire.over_10ms)
        net_c.ops;
      m "checker.ns_per_pair" "ns" (ratio traced.check_ns traced.pairs)
        traced.pairs;
      m "generator.lag_p50_us" "us" (Hist.quantile_us shape_wire.lag 0.5)
        (Hist.count shape_wire.lag);
      m "generator.lag_p99_us" "us" (Hist.quantile_us shape_wire.lag 0.99)
        (Hist.count shape_wire.lag);
      m "trace.overhead_pct" "%" ((p50 traced /. p50 untraced -. 1.) *. 100.)
        (Hist.count traced.lat) ]
  in
  Printf.printf "perfbench %s (%s, n=%d) seed %d: traced rung ladder\n"
    w.w_name T.name w.w_n seed;
  List.iter
    (fun (name, a) ->
       Printf.printf "  rung %-13s %8d stamps  p50 %9.2f us  p99 %9.2f us\n"
         name a.stamps (p50 a) (Hist.quantile_us a.lat 0.99))
    [ ("direct", direct); ("inproc.p1", inproc1); ("inproc.shape", shape_svc);
      ("wire.p1", wire1); ("wire.mixed", shape_wire);
      ("untraced", untraced) ];
  if not net_c.layout_ok then
    Printf.printf
      "  WARNING: server threads do not match the expected domain layout; \
       server.io_cpu_us_per_op is unreliable\n";
  print_metrics ms;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let file = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir w.w_name seed in
  Obs.Trace.write_file tr file;
  Printf.printf "  %d spans -> %s\n" (Obs.Trace.num_events tr) file;
  let all = [ untraced; direct; inproc1; shape_svc; wire1; shape_wire ] in
  let violation = List.find_map (fun a -> a.violation) all in
  Option.iter (Printf.printf "  VIOLATION: %s\n") violation;
  let valid = lag_valid shape_wire && lag_valid untraced in
  if not valid then
    Printf.printf "  INVALID run: generator lag p99 above %.0f us\n"
      lag_bound_us;
  let sum f = List.fold_left (fun s a -> s + f a) 0 all in
  let correct = violation = None && valid in
  json_line ~correct ~attempted:(sum (fun a -> a.attempted))
    ~failed:(sum (fun a -> a.failed)) ms;
  correct

(* The gate must pass the real lamport object and catch the planted
   mutant-lamport-no-max in the svc-lamport shape (2 sessions: with one
   process the mutant's own register keeps it monotone). *)
let selftest () =
  let run impl =
    let (Timestamp.Registry.Impl (module T)) = impl_of impl in
    let w = { w_name = "selftest"; w_impl = impl; w_n = sessions;
              w_wire = false } in
    let acc =
      merge
        (measure_shape (module T) w ~rng:(Random.State.make [| 1 |])
           ~seconds:1.0 ~telemetry:false ~svc_c:None ~net_c:None)
    in
    Printf.printf "  %-24s %8d stamps gated: %s\n" impl acc.checked
      (match acc.violation with None -> "pass" | Some v -> "VIOLATION " ^ v);
    acc.violation
  in
  Printf.printf "perfbench selftest: correctness gate in the svc-lamport shape\n";
  let clean = run "lamport-longlived" in
  let mutant = run "mutant-lamport-no-max" in
  let ok = clean = None && mutant <> None in
  Printf.printf "selftest: %s\n"
    (if ok then "OK (clean passes, mutant caught)" else "FAILED");
  ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and self = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME svc-lamport | svc-sqrt | wire-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--ts-cli", Arg.Set_string ts_cli, "EXE the server binary");
      ("--selftest", Arg.Set self, " check the gate against a mutant") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let ok =
    try
      if !self then selftest ()
      else
        match List.find_opt (fun w -> w.w_name = !workload) workloads with
        | None ->
          Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
          exit 2
        | Some w ->
          if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
            Printf.eprintf "perfbench: bad --seconds or --trace\n";
            exit 2
          end;
          if !trace = 1 then run_traced w ~seed:!seed ~seconds:!seconds
          else run_e2e w ~seed:!seed ~seconds:!seconds
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 2
  in
  exit (if ok then 0 else 1)
