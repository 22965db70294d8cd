(** Dynamic verification of the timestamp specification.

    Given the history and the results of a simulated execution, checks the
    paper's requirement (Section 2): for every pair of completed getTS
    instances [g1, g2] returning [t1, t2], if [g1] happens before [g2] then
    [compare t1 t2 = true] and [compare t2 t1 = false]. *)

type violation = {
  op1 : Shm.History.op;
  op2 : Shm.History.op;
  t1 : string;
  t2 : string;
  reason : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%a(->%s) %s %a(->%s)" Shm.History.pp_op v.op1 v.t1
    v.reason Shm.History.pp_op v.op2 v.t2

(* Also checks basic sanity of compare on each individual timestamp:
   irreflexivity, required for consistency with happens-before (take g1 = g2
   impossible, but compare t t = true for a timestamp issued twice would be
   suspicious); we check it because all the paper's compares are strict
   orders. *)
let check (type r) ~compare_ts ~(pp : Format.formatter -> r -> unit)
    ~(hist : Shm.History.t) ~(results : (Shm.History.op * r) list) :
  (int, violation) result =
  let str t = Format.asprintf "%a" pp t in
  let completed =
    List.filter_map
      (fun ((op : Shm.History.op), t) ->
         match Shm.History.interval hist op with
         | Some (_, Some _) -> Some (op, t)
         | _ -> None)
      results
  in
  let exception Violation of violation in
  try
    let pairs = ref 0 in
    List.iter
      (fun (op1, t1) ->
         List.iter
           (fun (op2, t2) ->
              if op1 <> op2 && Shm.History.happens_before hist op1 op2 then begin
                incr pairs;
                if not (compare_ts t1 t2) then
                  raise
                    (Violation
                       { op1; op2; t1 = str t1; t2 = str t2;
                         reason = "happens before, but compare(t1,t2)=false" });
                if compare_ts t2 t1 then
                  raise
                    (Violation
                       { op1; op2; t1 = str t1; t2 = str t2;
                         reason = "happens before, but compare(t2,t1)=true" })
              end)
           completed)
      completed;
    List.iter
      (fun (op, t) ->
         if compare_ts t t then
           raise
             (Violation
                { op1 = op; op2 = op; t1 = str t; t2 = str t;
                  reason = "compare is not irreflexive at" }))
      completed;
    (* Symmetry: no strict order holds both ways, and a compare that does
       (even on a concurrent pair, which happens-before leaves
       unconstrained) cannot be consistent with any execution order. *)
    let rec antisym = function
      | [] -> ()
      | (op1, t1) :: rest ->
        List.iter
          (fun (op2, t2) ->
             if compare_ts t1 t2 && compare_ts t2 t1 then
               raise
                 (Violation
                    { op1; op2; t1 = str t1; t2 = str t2;
                      reason = "compare holds symmetrically between" }))
          rest;
        antisym rest
    in
    antisym completed;
    Ok !pairs
  with Violation v -> Error v

type 'r timed = {
  td_pid : int;
  td_call : int;
  td_start : int;
  td_end : int;
  td_ts : 'r;
}

(* Sorting by end tick and scanning the other axis by start tick turns the
   naive all-pairs pass into a prefix scan: for [o2] in ascending start-tick
   order, the predecessors with [td_end < o2.td_start] form a growing prefix
   of the end-sorted array, so only happens-before-eligible pairs are ever
   compared (the naive version also probed every unordered pair — the bulk
   of the quadratic work under heavy concurrency).

   Callers often pass short windows already in end-tick order, and in a
   run without overlap start-tick order is the same order, so each sort is
   skipped when a linear scan finds the array already sorted; the pair
   count is added once per prefix rather than once per pair. *)
let sorted_by key a =
  let rec go i =
    i >= Array.length a || (key a.(i - 1) <= key a.(i) && go (i + 1))
  in
  go 1

let check_timed (type r) ~compare_ts ~(pp : Format.formatter -> r -> unit)
    (records : r timed list) : (int, violation) result =
  let by_end = Array.of_list records in
  if not (sorted_by (fun r -> r.td_end) by_end) then
    Array.sort (fun a b -> Int.compare a.td_end b.td_end) by_end;
  let by_start =
    if sorted_by (fun r -> r.td_start) by_end then by_end
    else begin
      let a = Array.copy by_end in
      Array.sort (fun a b -> Int.compare a.td_start b.td_start) a;
      a
    end
  in
  let violation o1 o2 reason =
    let str t = Format.asprintf "%a" pp t in
    let op r : Shm.History.op = { pid = r.td_pid; call = r.td_call } in
    { op1 = op o1; op2 = op o2; t1 = str o1.td_ts; t2 = str o2.td_ts; reason }
  in
  let len = Array.length by_end in
  let pairs = ref 0 in
  let prefix = ref 0 in
  let exception Violation of violation in
  try
    for i = 0 to len - 1 do
      let o2 = Array.unsafe_get by_start i in
      let start2 = o2.td_start and ts2 = o2.td_ts in
      while
        !prefix < len && (Array.unsafe_get by_end !prefix).td_end < start2
      do
        incr prefix
      done;
      let p = !prefix in
      pairs := !pairs + p;
      for j = 0 to p - 1 do
        (* by construction [by_end.(j)] happens before [o2] *)
        let ts1 = (Array.unsafe_get by_end j).td_ts in
        if not (compare_ts ts1 ts2) then
          raise
            (Violation
               (violation by_end.(j) o2
                  "happens before, but compare(t1,t2)=false"));
        if compare_ts ts2 ts1 then
          raise
            (Violation
               (violation by_end.(j) o2
                  "happens before, but compare(t2,t1)=true"))
      done
    done;
    Ok !pairs
  with Violation v -> Error v

let check_sim (type v r)
    (module T : Intf.S with type value = v and type result = r)
    (cfg : (v, r) Shm.Sim.t) : (int, violation) result =
  check ~compare_ts:T.compare_ts ~pp:T.pp_ts ~hist:(Shm.Sim.hist cfg)
    ~results:(Shm.Sim.results cfg)
