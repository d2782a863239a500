(* Tests for the QSBR memory-reclamation substrate (the ssmem
   substitute): protocol invariants, reclamation timing, misuse
   detection, and multi-threaded behaviour on the simulator. *)

module Q = Mem.Qsbr.Make (Rt.Native_rt)
module QS = Mem.Qsbr.Make (Sim.Sim_rt)

let test_basic_lifecycle () =
  let freed = ref [] in
  let q = Q.create ~batch_size:4 ~free:(fun x -> freed := x :: !freed) () in
  Q.op_begin q;
  Q.retire q 1;
  Q.retire q 2;
  Q.op_end q;
  Alcotest.(check (list int)) "nothing freed before batch seals" [] !freed;
  Q.op_begin q;
  Q.retire q 3;
  Q.retire q 4;
  (* batch of 4 seals here; snapshot sees our own op in progress *)
  Q.op_end q;
  Q.op_begin q;
  Q.retire q 5;
  Q.op_end q;
  Q.flush q;
  (* all quiescent: everything reclaimable *)
  Alcotest.(check int) "all 5 freed" 5 (List.length !freed)

let test_stats () =
  let q = Q.create ~batch_size:2 () in
  Q.op_begin q;
  Q.retire q 1;
  Q.retire q 2;
  Q.retire q 3;
  Q.op_end q;
  let st = Q.stats q in
  Alcotest.(check int) "retired" 3 st.Q.retired;
  Alcotest.(check bool) "freed + pending = retired" true
    (st.Q.freed + st.Q.pending = 3);
  Q.flush q;
  let st = Q.stats q in
  Alcotest.(check int) "all reclaimed after flush" 0 st.Q.pending

let test_misuse_detected () =
  let q = Q.create () in
  Q.op_begin q;
  (match Q.op_begin q with
  | _ -> Alcotest.fail "nested op_begin must fail"
  | exception Invalid_argument _ -> ());
  Q.op_end q;
  (match Q.op_end q with
  | _ -> Alcotest.fail "op_end outside op must fail"
  | exception Invalid_argument _ -> ());
  (match
     Q.op_begin q;
     Q.quiescent q
   with
  | _ -> Alcotest.fail "quiescent inside op must fail"
  | exception Invalid_argument _ -> Q.op_end q)

(* The core safety property, on the simulator: an object retired while a
   reader is inside an operation that started before the retirement is
   not reclaimed until that reader passes a quiescent point. *)
let test_grace_period_sim () =
  let freed = Sim.Sched.loc [] in
  let q =
    QS.create ~batch_size:1
      ~free:(fun x -> Sim.Sched.write freed (x :: Sim.Sched.read freed))
      ()
  in
  let reader_saw_free_inside_op = Sim.Sched.loc false in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         if tid = 1 then (
           (* reader: long op straddling the retirement *)
           QS.op_begin q;
           Sim.Sched.work 5_000;
           if List.mem 42 (Sim.Sched.read freed) then
             Sim.Sched.write reader_saw_free_inside_op true;
           QS.op_end q;
           QS.quiescent q)
         else (
           Sim.Sched.work 500;
           (* writer (tid 0) retires object 42 while the reader is inside
              its op *)
           QS.op_begin q;
           QS.retire q 42;
           QS.op_end q;
           (* try hard to reclaim while the reader still straddles *)
           for _ = 1 to 10 do
             QS.op_begin q;
             QS.retire q 0;
             QS.op_end q;
             QS.flush q
           done)));
  Alcotest.(check bool) "no reclamation inside straddling op" false
    (Sim.Sched.read reader_saw_free_inside_op);
  (* After the run everyone is quiescent. Outside a simulation the
     current tid is 0 = the writer's slot: a final flush frees 42. *)
  QS.flush q;
  Alcotest.(check bool) "42 eventually freed" true
    (List.mem 42 (Sim.Sched.read freed))

let test_batching () =
  let frees = ref 0 in
  let q = Q.create ~batch_size:8 ~free:(fun _ -> incr frees) () in
  for i = 1 to 7 do
    Q.op_begin q;
    Q.retire q i;
    Q.op_end q
  done;
  Alcotest.(check int) "under batch size: nothing sealed" 0 !frees;
  Q.op_begin q;
  Q.retire q 8;
  Q.op_end q;
  Q.op_begin q;
  Q.op_end q;
  Q.op_begin q;
  Q.retire q 9;
  Q.op_end q;
  Q.flush q;
  Alcotest.(check int) "all reclaimed" 9 !frees

(* A thread that enters an operation and never quiesces (crashed, or
   descheduled forever) blocks the reclamation frontier: pending grows
   without bound, the invariant still holds, and [stalled] points at the
   culprit. *)
let never_quiescing_run q =
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         if tid = 1 then QS.op_begin q
           (* enters an op and never finishes it *)
         else (
           (* let the reader get inside first *)
           Sim.Sched.work 1_000;
           for i = 1 to 50 do
             QS.op_begin q;
             QS.retire q i;
             QS.op_end q;
             QS.flush q
           done)))

let test_never_quiescing_blocks_reclamation () =
  let q = QS.create ~batch_size:1 () in
  never_quiescing_run q;
  let st = QS.stats q in
  Alcotest.(check int) "all retires recorded" 50 st.QS.retired;
  Alcotest.(check bool) "pending grows behind the stuck reader" true
    (st.QS.pending >= 49);
  Alcotest.(check bool) "retired = freed + pending" true
    (st.QS.freed + st.QS.pending = st.QS.retired);
  Alcotest.(check (list int)) "the stuck reader is reported" [ 1 ]
    (QS.stalled q)

let test_stall_obs_bounds_damage () =
  let q = QS.create ~batch_size:1 ~stall_obs:5 () in
  never_quiescing_run q;
  QS.flush q;
  let st = QS.stats q in
  Alcotest.(check bool) "invariant holds including forced frees" true
    (st.QS.freed + st.QS.pending = st.QS.retired);
  Alcotest.(check bool) "pending bounded once the reader is declared dead"
    true
    (st.QS.pending < 20);
  Alcotest.(check bool) "dead reader reported" true
    (List.mem 1 (QS.stalled q))

let test_declare_dead_manual () =
  let q = QS.create ~batch_size:1 () in
  never_quiescing_run q;
  Alcotest.(check bool) "blocked before the declaration" true
    ((QS.stats q).QS.pending > 0);
  (* e.g. the watchdog just reported t1 as a dead lock holder *)
  QS.declare_dead q 1;
  QS.flush q;
  let st = QS.stats q in
  Alcotest.(check int) "drained after declare_dead" 0 st.QS.pending;
  Alcotest.(check bool) "invariant holds" true
    (st.QS.freed + st.QS.pending = st.QS.retired)

let qcheck_retire_counts =
  Tutil.qcheck_case ~count:100 "retired = freed + pending"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 2))
    (fun ops ->
      let q = Q.create ~batch_size:4 () in
      let retired = ref 0 in
      let in_op = ref false in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              if not !in_op then (
                Q.op_begin q;
                in_op := true)
          | 1 ->
              if !in_op then (
                Q.retire q !retired;
                incr retired)
          | _ ->
              if !in_op then (
                Q.op_end q;
                in_op := false))
        ops;
      if !in_op then Q.op_end q;
      let st = Q.stats q in
      st.Q.retired = !retired && st.Q.freed + st.Q.pending = !retired)

module St = Dstruct.Stacks.Make (Sim.Sim_rt)

(* Stamp cells are built on first touch, yet their lines belong to the
   site the QSBR was created under, with the ids eager stamps had: a
   Treiber stack's recorded profile attributes its top word and the
   stamp line of every thread that ran to ["stack-treiber.top"]. The
   record's fields are evaluated right to left, so the QSBR reserves its
   128 stamp ids just before the top word's. *)
let test_stamp_lines_attributed () =
  let s = St.Treiber.create () in
  let top = Sim.Sched.line_id s.St.Treiber.top in
  let nthreads = 3 in
  Obs.Journal.start ();
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads (fun tid ->
         for i = 1 to 10 do
           St.Treiber.push s ((tid * 100) + i);
           ignore (St.Treiber.pop s : int option)
         done));
  let r = Obs.Journal.stop () in
  let ids =
    List.filter_map
      (fun (ls : Obs.Journal.line_stat) ->
        if ls.ls_site = Some "stack-treiber.top" then Some (ls.ls_id - top)
        else None)
      r.Obs.Journal.lines
  in
  Alcotest.(check (list int)) "one stamp line per thread, then the top line"
    (List.init nthreads (fun i -> i - 128) @ [ 0 ])
    ids

let () =
  Alcotest.run "qsbr"
    [
      ( "protocol",
        [
          Alcotest.test_case "lifecycle" `Quick test_basic_lifecycle;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "misuse detected" `Quick test_misuse_detected;
          Alcotest.test_case "batching" `Quick test_batching;
          qcheck_retire_counts;
        ] );
      ( "grace periods",
        [ Alcotest.test_case "straddling reader" `Quick test_grace_period_sim ]
      );
      ( "stalled readers",
        [
          Alcotest.test_case "never-quiescing reader blocks reclamation"
            `Quick test_never_quiescing_blocks_reclamation;
          Alcotest.test_case "stall_obs bounds the damage" `Quick
            test_stall_obs_bounds_damage;
          Alcotest.test_case "declare_dead drains" `Quick
            test_declare_dead_manual;
        ] );
      ( "stamp lines",
        [
          Alcotest.test_case "attributed to the creating site" `Quick
            test_stamp_lines_attributed;
        ] );
    ]
