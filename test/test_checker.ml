(* The checker itself must detect violations: feed it corrupted results. *)

let fabricate_history () =
  (* two sequential calls: p0.0 then p1.0 *)
  let h = Shm.History.empty in
  let h = Shm.History.invoke h ~pid:0 ~call:0 in
  let h = Shm.History.respond h ~pid:0 ~call:0 in
  let h = Shm.History.invoke h ~pid:1 ~call:0 in
  let h = Shm.History.respond h ~pid:1 ~call:0 in
  h

let op pid : Shm.History.op = { pid; call = 0 }

let run results =
  Timestamp.Checker.check ~compare_ts:(fun (a : int) b -> a < b)
    ~pp:Format.pp_print_int ~hist:(fabricate_history ()) ~results

let accepts_correct_results () =
  match run [ (op 0, 1); (op 1, 2) ] with
  | Ok pairs -> Util.check_int "one ordered pair" 1 pairs
  | Error _ -> Alcotest.fail "should accept"

let rejects_equal_timestamps () =
  match run [ (op 0, 5); (op 1, 5) ] with
  | Ok _ -> Alcotest.fail "should reject: hb pair with equal timestamps"
  | Error v ->
    Util.check_bool "mentions compare" true
      (String.length v.reason > 0)

let rejects_inverted_timestamps () =
  Util.check_bool "inverted rejected" true (Result.is_error (run [ (op 0, 9); (op 1, 2) ]))

let ignores_pending_operations () =
  let h = Shm.History.invoke (fabricate_history ()) ~pid:2 ~call:0 in
  match
    Timestamp.Checker.check ~compare_ts:(fun (a : int) b -> a < b)
      ~pp:Format.pp_print_int ~hist:h
      ~results:[ (op 0, 1); (op 1, 2) ]
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pending op must not affect checking"

(* Symmetric compares must be flagged even on pairs that happens-before
   leaves unconstrained (concurrent calls). *)
let detects_symmetric_compare () =
  (* two concurrent calls: both invoked before either responds *)
  let h = Shm.History.empty in
  let h = Shm.History.invoke h ~pid:0 ~call:0 in
  let h = Shm.History.invoke h ~pid:1 ~call:0 in
  let h = Shm.History.respond h ~pid:0 ~call:0 in
  let h = Shm.History.respond h ~pid:1 ~call:0 in
  (* a "compare" that orders distinct values both ways but is irreflexive *)
  match
    Timestamp.Checker.check ~compare_ts:(fun (a : int) b -> a <> b)
      ~pp:Format.pp_print_int ~hist:h ~results:[ (op 0, 1); (op 1, 2) ]
  with
  | Ok _ -> Alcotest.fail "symmetric compare must be flagged"
  | Error v ->
    Util.check_bool "reason mentions symmetry" true
      (v.reason = "compare holds symmetrically between")

let symmetric_check_skips_pending () =
  (* the symmetric rule only applies to completed calls: this compare is
     symmetric exactly between the values 2 and 9, and only a pending op
     carries 9 *)
  let h = Shm.History.invoke (fabricate_history ()) ~pid:2 ~call:0 in
  match
    Timestamp.Checker.check
      ~compare_ts:(fun (a : int) b -> a < b || (a = 9 && b = 2))
      ~pp:Format.pp_print_int ~hist:h
      ~results:[ (op 0, 1); (op 1, 2); ({ pid = 2; call = 0 }, 9) ]
  with
  | Ok pairs -> Util.check_int "still one hb pair" 1 pairs
  | Error _ -> Alcotest.fail "pending op must not affect the symmetric rule"

let detects_reflexive_compare () =
  match
    Timestamp.Checker.check ~compare_ts:(fun (a : int) b -> a <= b)
      ~pp:Format.pp_print_int ~hist:(fabricate_history ())
      ~results:[ (op 0, 1); (op 1, 2) ]
  with
  | Ok _ -> Alcotest.fail "reflexive compare must be flagged"
  | Error _ -> ()

(* [check_timed] against the definition: every ordered pair of records
   with [td_end o1 < td_start o2], in both directions, with no sorting or
   prefix bookkeeping.  The two must agree on the verdict and, when it is
   Ok, on the number of pairs checked. *)
let naive_timed ~compare_ts (records : 'r Timestamp.Checker.timed list) =
  let pairs = ref 0 and ok = ref true in
  List.iter
    (fun (o1 : _ Timestamp.Checker.timed) ->
       List.iter
         (fun (o2 : _ Timestamp.Checker.timed) ->
            if o1.td_end < o2.td_start then begin
              incr pairs;
              if (not (compare_ts o1.td_ts o2.td_ts))
                 || compare_ts o2.td_ts o1.td_ts
              then ok := false
            end)
         records)
    records;
  if !ok then Ok !pairs else Error ()

let agrees ~compare_ts ~pp records =
  match
    (Timestamp.Checker.check_timed ~compare_ts ~pp records,
     naive_timed ~compare_ts records)
  with
  | Ok p, Ok q -> p = q
  | Error _, Error () -> true
  | Ok _, Error () | Error _, Ok _ -> false

(* Random intervals; the timestamp is the end tick (a correct object),
   the end tick plus noise (an occasionally wrong one) or unrelated, under
   a strict, a reflexive, an inverted or a symmetric compare. *)
let gen_timed_case =
  let open QCheck2.Gen in
  let record =
    map
      (fun ((start, dur), (noise, call)) -> (start, start + dur, noise, call))
      (pair (pair (int_range 0 60) (int_range 0 12))
         (pair (int_range (-3) 3) (int_range 0 1000)))
  in
  triple (int_range 0 2) (int_range 0 3) (list_size (int_range 0 40) record)

let timed_matches_naive =
  Util.qtest ~count:500 "check_timed agrees with all-pairs on random histories"
    gen_timed_case
    (fun (ts_kind, cmp_kind, raw) ->
       let records =
         List.mapi
           (fun i (start, end_, noise, call) ->
              let ts =
                match ts_kind with
                | 0 -> end_
                | 1 -> end_ + noise
                | _ -> call
              in
              { Timestamp.Checker.td_pid = i; td_call = 0; td_start = start;
                td_end = end_; td_ts = ts })
           raw
       in
       let compare_ts : int -> int -> bool =
         match cmp_kind with
         | 0 -> ( < )
         | 1 -> ( <= )
         | 2 -> ( > )
         | _ -> ( <> )
       in
       agrees ~compare_ts ~pp:Format.pp_print_int records)

(* The planted mutants' own parallel runs: real histories the checker is
   meant to reject, and the same pair count wherever it accepts. *)
let timed_matches_naive_on_mutants () =
  let rejected = ref 0 in
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       let module St = Multicore.Stress.Make (T) in
       let calls = if T.kind = `One_shot then 1 else 4 in
       for _ = 1 to 10 do
         let records =
           List.map
             (fun (r : St.op_record) ->
                { Timestamp.Checker.td_pid = r.pid; td_call = r.call;
                  td_start = r.start_tick; td_end = r.end_tick; td_ts = r.ts })
             (St.run ~n:3 ~calls ())
         in
         Util.check_bool (T.name ^ ": verdict and pair count agree") true
           (agrees ~compare_ts:T.compare_ts ~pp:T.pp_ts records);
         if Result.is_error (naive_timed ~compare_ts:T.compare_ts records)
         then incr rejected
       done)
    Fuzz.Mutant.all;
  Util.check_bool "some mutant run was rejected" true (!rejected > 0)

let suite =
  ( "checker",
    [ Util.case "accepts correct results" accepts_correct_results;
      Util.case "rejects equal timestamps on hb pair" rejects_equal_timestamps;
      Util.case "rejects inverted timestamps" rejects_inverted_timestamps;
      Util.case "ignores pending operations" ignores_pending_operations;
      Util.case "detects reflexive compare" detects_reflexive_compare;
      Util.case "detects symmetric compare" detects_symmetric_compare;
      Util.case "symmetric rule skips pending ops" symmetric_check_skips_pending;
      timed_matches_naive;
      Util.case "check_timed agrees with all-pairs on mutant runs"
        timed_matches_naive_on_mutants ] )
