(* Outside-in instruments: a monotonic clock, the pacer's sleep, /proc
   counters of this process and of the server child, a fixed-size latency
   histogram and order statistics.  Nothing here calls into the libraries
   being measured, so changing them cannot change the instrument. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

external sleep_until_ns : int -> unit = "perfbench_sleep_until_ns"

external set_timerslack_ns : int -> unit = "perfbench_set_timerslack_ns"

external clk_tck : unit -> int = "perfbench_clk_tck"

let ticks_per_s = float_of_int (clk_tck ())

(* ------------------------------------------------------------------ *)
(* /proc readers                                                        *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let lines path =
  match read_file path with
  | None -> []
  | Some s -> String.split_on_char '\n' s

(* "key:   123 kB" -> 123 *)
let field path key =
  List.fold_left
    (fun acc line ->
       match String.index_opt line ':' with
       | Some i when String.sub line 0 i = key -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match String.split_on_char ' ' (String.trim rest) with
           | v :: _ -> Option.value ~default:acc (int_of_string_opt v)
           | [] -> acc)
       | _ -> acc)
    0 (lines path)

let tasks pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | exception Sys_error _ -> []
  | a ->
    let l = List.filter_map int_of_string_opt (Array.to_list a) in
    List.sort Int.compare l

let task_path pid tid f = Printf.sprintf "/proc/%d/task/%d/%s" pid tid f

(* nanoseconds on CPU (schedstat field 1: exact, unlike the tick-based
   utime/stime) *)
let task_cpu_ns pid tid =
  match read_file (task_path pid tid "schedstat") with
  | None -> 0
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | v :: _ -> Option.value ~default:0 (int_of_string_opt v)
      | [] -> 0)

(* system seconds (stime, field 15) from a stat line; the command name in
   parentheses may contain spaces *)
let stat_sys_s path =
  match read_file path with
  | None -> 0.
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> 0.
      | Some i -> (
          let rest = String.sub s (i + 2) (String.length s - i - 2) in
          match List.nth_opt (String.split_on_char ' ' rest) 12 with
          | Some v ->
            float_of_int (Option.value ~default:0 (int_of_string_opt v))
            /. ticks_per_s
          | None -> 0.))

let task_ctx pid tid =
  let p = task_path pid tid "status" in
  field p "voluntary_ctxt_switches" + field p "nonvoluntary_ctxt_switches"

(* read/write syscalls of a process or thread ([io] file); select is not
   counted *)
let syscalls io = field io "syscr" + field io "syscw"

(* A process-wide snapshot: per-thread CPU and syscalls, summed context
   switches and syscalls, system seconds. *)
type snap = {
  sn_tasks : (int * (int * int)) list;  (* tid, (cpu ns, syscalls) *)
  sn_ctx : int;
  sn_syscalls : int;
  sn_sys_s : float;
}

let snapshot pid =
  let ts = tasks pid in
  { sn_tasks =
      List.map
        (fun tid ->
           (tid, (task_cpu_ns pid tid, syscalls (task_path pid tid "io"))))
        ts;
    sn_ctx = List.fold_left (fun acc tid -> acc + task_ctx pid tid) 0 ts;
    sn_syscalls = syscalls (Printf.sprintf "/proc/%d/io" pid);
    sn_sys_s = stat_sys_s (Printf.sprintf "/proc/%d/stat" pid) }

(* per-thread (cpu ns, syscalls) between two snapshots *)
let task_delta a b tid =
  let get s = Option.value ~default:(0, 0) (List.assoc_opt tid s.sn_tasks) in
  let c0, y0 = get a and c1, y1 = get b in
  (c1 - c0, y1 - y0)

let vm_hwm_mb pid =
  float_of_int (field (Printf.sprintf "/proc/%d/status" pid) "VmHWM") /. 1024.

let self_pid = Unix.getpid ()

(* process CPU of this process in seconds (getrusage: microsecond
   resolution, all domains) *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Log-linear histogram of non-negative ints (nanoseconds): exact below
   128, then 64 buckets per power of two (< 1.6% relative error).  Fixed
   size, so memory does not grow with run length.                      *)

module Hist = struct
  type t = { counts : int array; mutable total : int; mutable max : int }

  let size = 64 * 64

  let create () = { counts = Array.make size 0; total = 0; max = 0 }

  let rec msb v e = if v > 1 then msb (v lsr 1) (e + 1) else e

  let index v =
    if v < 128 then v
    else
      let e = msb v 0 in
      ((e - 6) * 64) + (v lsr (e - 6))

  (* bucket [i] covers [lower i, lower i + width i) *)
  let width i = if i < 128 then 1 else 1 lsl ((i / 64) - 1)

  let lower i = if i < 128 then i else ((i mod 64) + 64) * width i

  let add h v =
    let v = max 0 v in
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1;
    if v > h.max then h.max <- v

  let merge_into dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.total <- dst.total + src.total;
    dst.max <- max dst.max src.max

  let count h = h.total

  (* value at quantile q in [0, 1], interpolated by rank inside its
     bucket (a bucket midpoint would read the same on every run); 0 for
     an empty histogram *)
  let quantile h q =
    if h.total = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
      let acc = ref 0 and i = ref 0 in
      while !acc + h.counts.(!i) < rank do
        acc := !acc + h.counts.(!i);
        incr i
      done;
      let frac =
        (float_of_int (rank - !acc) -. 0.5) /. float_of_int h.counts.(!i)
      in
      Float.min
        (float_of_int (lower !i) +. (frac *. float_of_int (width !i)))
        (float_of_int h.max)
    end

  let quantile_us h q = quantile h q /. 1e3
end

(* ------------------------------------------------------------------ *)
(* order statistics over floats                                         *)

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* exponential inter-arrival time, nanoseconds *)
let exp_gap_ns rng rate =
  let u = Random.State.float rng 1.0 in
  int_of_float (-.Float.log (1. -. u) /. rate *. 1e9)
