(* The correctness gate: every stamp of every run is checked, at a cost
   linear in run length.

   [Timestamp.Checker.check_timed] compares every happens-before pair, so
   a run of N stamps costs O(N^2) (40k stamps = 800M pairs, seconds of
   work).  The gate instead sorts stamps by end tick and runs
   [check_timed] over overlapping windows of [window] consecutive stamps
   advancing by [window / 2], so every pair at most [window / 2] apart in
   completion order is checked: O(N * window).  Pairs further apart are
   covered by the transitivity of the strict orders the implementations'
   [compare] define.  The windows are wider than the closed-loop workloads'
   16 requests in flight, and [perfbench/run.sh --selftest] shows they
   catch a planted ordering bug.

   Per stamp it also checks what [check_timed] does not: start tick <= end
   tick, end ticks unique, compare irreflexive, long-lived call numbers
   strictly increasing per process, one-shot process ids never reused.

   One gate per object instance (a fresh service or server starts a fresh
   history); the caller times [check] outside the measured window. *)

open Svc.Client

let window = 64

let stride = window / 2

type 'r t = {
  compare_ts : 'r -> 'r -> bool;
  pp : Format.formatter -> 'r -> unit;
  one_shot : bool;
  mutable tail : 'r stamp array;  (* last [stride] stamps checked *)
  calls : (int, int) Hashtbl.t;  (* pid -> last call seen *)
  mutable stamps : int;
  mutable pairs : int;
  mutable violation : string option;
}

let create (type r) (module T : Timestamp.Intf.S with type result = r) :
  r t =
  { compare_ts = T.compare_ts;
    pp = T.pp_ts;
    one_shot = T.kind = `One_shot;
    tail = [||];
    calls = Hashtbl.create 64;
    stamps = 0;
    pairs = 0;
    violation = None }

let fail g fmt =
  Printf.ksprintf
    (fun msg -> if g.violation = None then g.violation <- Some msg)
    fmt

let timed (s : _ stamp) : _ Timestamp.Checker.timed =
  { td_pid = s.st_pid; td_call = s.st_call; td_start = s.st_start_tick;
    td_end = s.st_end_tick; td_ts = s.st_ts }

let check_window g a lo hi =
  let l = List.init (hi - lo) (fun i -> timed a.(lo + i)) in
  match Timestamp.Checker.check_timed ~compare_ts:g.compare_ts ~pp:g.pp l with
  | Ok p -> g.pairs <- g.pairs + p
  | Error v -> fail g "%s" (Format.asprintf "%a" Timestamp.Checker.pp_violation v)

let check_stamp g (s : _ stamp) =
  if s.st_start_tick > s.st_end_tick then
    fail g "p%d.%d: start tick %d after end tick %d" s.st_pid s.st_call
      s.st_start_tick s.st_end_tick;
  if g.compare_ts s.st_ts s.st_ts then
    fail g "p%d.%d: compare is not irreflexive" s.st_pid s.st_call;
  match Hashtbl.find_opt g.calls s.st_pid with
  | Some _ when g.one_shot -> fail g "one-shot pid %d issued twice" s.st_pid
  | Some c when s.st_call <= c ->
    fail g "p%d: call %d after call %d" s.st_pid s.st_call c
  | _ -> Hashtbl.replace g.calls s.st_pid s.st_call

(* [check g chunk len] gates [chunk.(0 .. len-1)], the stamps completed
   since the previous call. *)
let check g chunk len =
  let by_end (x : _ stamp) y = Int.compare x.st_end_tick y.st_end_tick in
  let fresh = Array.sub chunk 0 len in
  Array.sort by_end fresh;
  Array.iter (check_stamp g) fresh;
  let a = Array.append g.tail fresh in
  Array.stable_sort by_end a;
  let n = Array.length a in
  for i = 1 to n - 1 do
    if a.(i).st_end_tick = a.(i - 1).st_end_tick then
      fail g "end tick %d issued twice (p%d.%d, p%d.%d)" a.(i).st_end_tick
        a.(i - 1).st_pid a.(i - 1).st_call a.(i).st_pid a.(i).st_call
  done;
  let rec windows lo =
    let hi = min n (lo + window) in
    if hi - lo > 1 then check_window g a lo hi;
    if hi < n then windows (lo + stride)
  in
  if len > 0 then windows 0;
  g.tail <- Array.sub a (max 0 (n - stride)) (min n stride);
  g.stamps <- g.stamps + len
