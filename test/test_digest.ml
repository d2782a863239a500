(* Golden-digest determinism tests.

   The simulator's seeded outputs are part of its contract: chaos repro
   strings, soak failure tuples and trace exports must stay byte-identical
   across engine changes (inline fast path, event heap layout, contention
   accounting), or every recorded repro and committed trace silently goes
   stale. These tests pin MD5 digests of representative seeded outputs:

   - a fixed-seed chaos fuzzing session (trial strings + verdicts),
   - a fixed-trial chaos replay,
   - fixed-seed KV and transaction fuzzing sessions,
   - the repro string the shrinker derives from a known-failing trial,
   - a soak-style randomized sweep summary (workload tuple + full stats),
   - a Chrome trace_event export and its JSONL twin,
   - run reports of the queue runner, the stack runner and one Figure 5
     point.

   The digests were recorded before the PR-4 hot-path overhaul and must
   survive it unchanged. If an *intentional* output-format change breaks
   them, regenerate with:

     GOLDEN_PRINT=1 dune exec test/test_digest.exe

   and update the constants below — never update them to paper over an
   unintended schedule change. *)

module R = Harness.Registry

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Output producers                                                    *)

let with_ppf f =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  let x = f ppf in
  Format.pp_print_flush ppf ();
  (x, Buffer.contents buf)

(* A fixed-seed fuzzing session over the CI smoke set. *)
let chaos_output () =
  let failed, out =
    with_ppf (fun ppf ->
        Chaos.fuzz (Chaos.structure_family Chaos.quick_entries) ~runs:8 ~seed:3
          ppf)
  in
  Printf.sprintf "failed=%d\n%s" failed out

(* Replay of a pinned trial string (drawn deterministically so the string
   itself is also covered by the digest). *)
let replay_output () =
  let rng = Harness.Rng.create 99 in
  let fam = Chaos.structure_family Chaos.quick_entries in
  let s = fam.Chaos.to_string (fam.Chaos.gen rng) in
  let failures, out = with_ppf (fun ppf -> Chaos.replay fam s ppf) in
  Printf.sprintf "trial=%s\nfailures=%d\n%s" s failures out

(* Fixed-seed fuzzing sessions over the KV service and the transaction
   manager: trial strings, verdicts and the merged summary line. *)
let kv_output () =
  let failed, out =
    with_ppf (fun ppf -> Chaos.fuzz Chaos.kv_family ~runs:4 ~seed:1 ppf)
  in
  Printf.sprintf "failed=%d\n%s" failed out

let txn_output () =
  let failed, out =
    with_ppf (fun ppf -> Chaos.fuzz Chaos.txn_family ~runs:4 ~seed:1 ppf)
  in
  Printf.sprintf "failed=%d\n%s" failed out

(* The shrinker's answer on test_chaos's known-failing trial: a blocking
   list mislabeled lock-free, crashed inside its critical section, padded
   with two irrelevant stalls. *)
let shrink_output () =
  let fake_lf =
    {
      Chaos.e_name = "list/gl-as-lf";
      e_kind = Chaos.Lock_free;
      e_target = Chaos.Set R.Sim_backend.ll_optik_gl;
    }
  in
  let fam = Chaos.structure_family [ fake_lf ] in
  let tr =
    fam.Chaos.of_string
      "list/gl-as-lf@u4 t4 o6 k4 q20000 r0 n62 w5 \
       f1;crash@critical-enter,h1;stall(20000)@op-boundary,h2;\
       stall(30000)@restart,h3"
  in
  fam.Chaos.to_string (Chaos.shrink fam tr)

(* A soak-style sweep: same sampling shape as test/soak.ml, pinned seed,
   full stats per run so any scheduling change shows up. *)
let soak_output () =
  let b = Buffer.create 4096 in
  let rng = Harness.Rng.create 424242 in
  let topologies =
    [ Sim.Topology.xeon; Sim.Topology.opteron; Sim.Topology.uniform ~n:4 () ]
  in
  let module SB = R.Sim_backend in
  let all_sets = SB.maps @ SB.lists @ SB.hashtables in
  for i = 1 to 6 do
    let seed = Harness.Rng.next rng land 0xFFFFFF in
    let topo = List.nth topologies (Harness.Rng.below rng 3) in
    let nthreads = 1 + Harness.Rng.below rng 16 in
    let size = 4 lsl Harness.Rng.below rng 7 in
    let updates = 10 + Harness.Rng.below rng 80 in
    let skewed = Harness.Rng.below rng 2 = 0 in
    let ops = 1_000 + Harness.Rng.below rng 4_000 in
    let (module S : R.SET_OPS) =
      List.nth all_sets (Harness.Rng.below rng (List.length all_sets))
    in
    let w =
      let base =
        if skewed then
          Harness.Runner.skewed_workload ~init_size:size ~update_pct:updates ()
        else
          Harness.Runner.uniform_workload ~init_size:size ~update_pct:updates ()
      in
      { base with Harness.Runner.capacity = Some (2 * size) }
    in
    Dstruct.Sl_common.reset_states ();
    let m = Harness.Runner.run_set_sim ~topology:topo ~nthreads ~ops ~seed (module S) w in
    Printf.bprintf b
      "%d %s topo=%s thr=%d size=%d upd=%d skew=%b ops=%d seed=%d -> \
       ops=%d mops=%.6f wall=%.9f reads=%d writes=%d cas=%d casf=%d \
       size=%d valid=%b complete=%b\n"
      i S.name topo.Sim.Topology.name nthreads size updates skewed ops seed
      m.Harness.Runner.ops m.Harness.Runner.mops m.Harness.Runner.wall_s
      m.Harness.Runner.reads m.Harness.Runner.writes m.Harness.Runner.cas
      m.Harness.Runner.cas_failed m.Harness.Runner.final_size
      m.Harness.Runner.valid
      (match m.Harness.Runner.outcome with
      | Harness.Runner.Complete -> true
      | Harness.Runner.Aborted _ -> false)
  done;
  Buffer.contents b

(* Trace exports of a recorded run: the Chrome trace_event JSON and the
   JSONL journal must both be byte-stable. *)
let trace_outputs () =
  let (module S : R.SET_OPS) =
    R.Sim_backend.find_named R.Sim_backend.lists "optik"
  in
  let w = Harness.Runner.uniform_workload ~init_size:256 ~update_pct:40 () in
  let m =
    Harness.Runner.run_set_sim ~topology:Sim.Topology.xeon ~nthreads:8
      ~ops:4_000 ~seed:11 ~record_obs:true
      (module S)
      w
  in
  match m.Harness.Runner.obs with
  | None -> Alcotest.fail "expected an observability summary"
  | Some s ->
      ( Obs.Trace.to_chrome s.Obs.Profile.s_record,
        Obs.Trace.to_jsonl s.Obs.Profile.s_record )

(* A seeded run report: the same bytes [optik_bench run ... --report]
   writes, so the report schema and the deterministic JSON printer are
   both pinned. Two structures (OPTIK vs lazy lists) and their diff. *)
let report_output name =
  let (module S : R.SET_OPS) =
    R.Sim_backend.find_named R.Sim_backend.lists name
  in
  let w = Harness.Runner.uniform_workload ~init_size:256 ~update_pct:40 () in
  let m =
    Harness.Runner.run_set_sim ~topology:Sim.Topology.xeon ~nthreads:8
      ~ops:4_000 ~seed:11 ~record_obs:true
      (module S)
      w
  in
  Obs.Report.to_string
    (Harness.Report.make ~subcommand:"run" ~seed:(Some 11)
       ~params:[ ("structure", Obs.Report.Str name) ]
       [ ("list/" ^ name, m) ])

(* Run reports of the measurement paths the set-runner report does not
   cover: a recorded queue run, a stack run, and one Figure 5 point (which
   drives the scheduler directly). *)
let measurement_report name (m : Harness.Runner.measurement) =
  Obs.Report.to_string
    (Harness.Report.make ~subcommand:"run" ~seed:(Some 11) ~params:[]
       [ (name, m) ])

let queue_report () =
  let (module Q : R.QUEUE_OPS) = R.Sim_backend.q_optik2 in
  measurement_report Q.name
    (Harness.Runner.run_queue_sim ~topology:Sim.Topology.xeon ~nthreads:8
       ~ops:4_000 ~seed:11 ~init:512 ~record_obs:true ~enqueue_pct:50
       (module Q))

let stack_report () =
  let (module St : R.STACK_OPS) = R.Sim_backend.stack_optik in
  measurement_report St.name
    (Harness.Runner.run_stack_sim ~topology:Sim.Topology.opteron ~nthreads:6
       ~ops:4_000 ~seed:11 ~init:256 ~push_pct:40
       (module St))

let fig5_report () =
  measurement_report "f5/optik-ticket"
    (Figures.Experiments.fig5_point Figures.Experiments.Optik_ticket
       ~topology:Sim.Topology.xeon ~nthreads:8 ~ops:4_000)

let diff_output () =
  let parse s =
    match Obs.Report.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "report reparse failed: %s" e
  in
  let a = parse (report_output "optik") in
  let b = parse (report_output "lazy") in
  match Obs.Report.diff a b with
  | Ok text -> text
  | Error e -> Alcotest.failf "diff failed: %s" e

(* ------------------------------------------------------------------ *)
(* Recorded digests (pre-PR-4 engine)                                  *)

let golden_chaos = "8029953889ca251b8fbaa4daa4094b23"
let golden_replay = "9305587bce9c034a34108a66ecdc1e6a"
let golden_soak = "c1eccf8222670fdf0e454345635e8d65"
(* PR-5 note: golden_chrome/golden_jsonl were regenerated when the OPTIK
   trylock-fail probe changed from a journal event to a counter (the
   journal now records Count rows instead of Instant rows); the
   chaos/replay/soak digests survived that change unchanged, which is the
   point — probes never touch the virtual clock. *)
let golden_chrome = "850006d657dbd05b7a13595366e44cd0"
let golden_jsonl = "954b88fc23c121c30a979276b9581b49"
(* PR-6 note: golden_report/golden_diff were regenerated when the
   latency summaries grew p99/p999 tail percentiles (for the KV
   service's per-class tails); the other five digests survived
   unchanged — the new percentiles are derived from the same recorded
   samples and nothing about the runs themselves moved. *)
let golden_report = "30e00611a1141c36d2319c89457d9c30"
let golden_diff = "43583b66f19053aef91773fd8efd0d5c"
(* Recorded while set, kv and txn trials still had separate drivers, so
   these pin the shared driver's output for kv, txn and the shrinker. *)
let golden_kv = "33e80266bbb5d8a561255f3fb77cc798"
let golden_txn = "73b5a76a20ff6b0648988d17ecbf94a5"
let golden_shrink = "7f2e2919f6324a8ecf73052801f2a3b5"
(* Recorded while the queue, stack and set runners each had their own
   loop and every measurement was written out by hand. *)
let golden_queue = "cbd21cad702a0a3a1d139578ecd758e9"
let golden_stack = "246ac2549be9db15b33cde73d6f45261"
let golden_fig5 = "a766b2659c656a24cb080f1479e04ccc"

(* ------------------------------------------------------------------ *)

let check_digest name golden data =
  Alcotest.(check string) (name ^ " digest") golden (digest data)

let test_chaos () = check_digest "chaos fuzz" golden_chaos (chaos_output ())
let test_replay () = check_digest "chaos replay" golden_replay (replay_output ())
let test_soak () = check_digest "soak sweep" golden_soak (soak_output ())

let test_traces () =
  let chrome, jsonl = trace_outputs () in
  check_digest "chrome trace" golden_chrome chrome;
  check_digest "jsonl trace" golden_jsonl jsonl

let test_report () =
  check_digest "run report" golden_report (report_output "optik")

let test_diff () = check_digest "report diff" golden_diff (diff_output ())
let test_kv () = check_digest "kv fuzz" golden_kv (kv_output ())
let test_txn () = check_digest "txn fuzz" golden_txn (txn_output ())
let test_shrink () = check_digest "chaos shrink" golden_shrink (shrink_output ())

let test_runners () =
  check_digest "queue report" golden_queue (queue_report ());
  check_digest "stack report" golden_stack (stack_report ());
  check_digest "fig5 report" golden_fig5 (fig5_report ())

(* Two back-to-back productions digest identically: determinism within a
   process, independent of the recorded constants (catches state leaking
   from one run into the next). *)
let test_self_stable () =
  Alcotest.(check string) "chaos twice" (digest (chaos_output ()))
    (digest (chaos_output ()));
  Alcotest.(check string) "soak twice" (digest (soak_output ()))
    (digest (soak_output ()))

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    Printf.printf "let golden_chaos = %S\n" (digest (chaos_output ()));
    Printf.printf "let golden_replay = %S\n" (digest (replay_output ()));
    Printf.printf "let golden_soak = %S\n" (digest (soak_output ()));
    let chrome, jsonl = trace_outputs () in
    Printf.printf "let golden_chrome = %S\n" (digest chrome);
    Printf.printf "let golden_jsonl = %S\n" (digest jsonl);
    Printf.printf "let golden_report = %S\n" (digest (report_output "optik"));
    Printf.printf "let golden_diff = %S\n" (digest (diff_output ()));
    Printf.printf "let golden_kv = %S\n" (digest (kv_output ()));
    Printf.printf "let golden_txn = %S\n" (digest (txn_output ()));
    Printf.printf "let golden_shrink = %S\n" (digest (shrink_output ()));
    Printf.printf "let golden_queue = %S\n" (digest (queue_report ()));
    Printf.printf "let golden_stack = %S\n" (digest (stack_report ()));
    Printf.printf "let golden_fig5 = %S\n" (digest (fig5_report ()));
    exit 0
  end;
  Alcotest.run "digest"
    [
      ( "golden",
        [
          Alcotest.test_case "chaos fuzz" `Quick test_chaos;
          Alcotest.test_case "chaos replay" `Quick test_replay;
          Alcotest.test_case "soak sweep" `Quick test_soak;
          Alcotest.test_case "trace exports" `Quick test_traces;
          Alcotest.test_case "run report" `Quick test_report;
          Alcotest.test_case "report diff" `Quick test_diff;
          Alcotest.test_case "kv fuzz" `Quick test_kv;
          Alcotest.test_case "txn fuzz" `Quick test_txn;
          Alcotest.test_case "chaos shrink" `Quick test_shrink;
          Alcotest.test_case "runner reports" `Quick test_runners;
          Alcotest.test_case "self-stable" `Quick test_self_stable;
        ] );
    ]
