(** Host-throughput benchmark for the simulator engine
    ([optik_bench hostperf]).

    Every figure sweep, chaos trial and soak iteration is bottlenecked by
    how many simulated memory accesses per {e host} second [lib/sim] can
    retire, so this module tracks that number directly: it runs a fixed
    set of representative workloads, measures host wall-clock per run
    (best of [repeats], to shed scheduler noise), and reports
    simulated-ops, simulated-accesses and scheduler-events per
    host-second. The simulated side of every run is fully deterministic —
    identical seeds give identical ops/accesses/events — only the host
    seconds vary between machines and runs.

    Every row also records the words the run allocated per op, and the
    OCaml version that produced them. Unlike host seconds, allocation is
    a function of the code and the compiler alone: it repeats to the
    word from run to run, so it can be gated tightly where host time
    cannot.

    Results serialize to [BENCH_sim.json], one result object per line,
    and the committed baseline is read back with the run reports' JSON
    parser ({!Obs.Report.parse}). *)

module R = Harness.Registry
module Runner = Harness.Runner

type result = {
  r_name : string;  (** spec name, stable across engine versions *)
  r_threads : int;
  r_ops : int;  (** benchmark operations completed (simulated) *)
  r_accesses : int;  (** simulated memory accesses: reads+writes+cas+faa *)
  r_events : int;  (** scheduler (slow-path) events *)
  r_host_s : float;  (** best-of-repeats host seconds for the run *)
  r_words : float;  (** fewest words allocated by one repeat *)
  r_ocaml : string;  (** the compiler version that produced [r_words] *)
}

let ops_per_hs r = float_of_int r.r_ops /. r.r_host_s
let words_per_op r = r.r_words /. float_of_int (max 1 r.r_ops)
let accesses_per_hs r = float_of_int r.r_accesses /. r.r_host_s
let events_per_hs r = float_of_int r.r_events /. r.r_host_s

(* ------------------------------------------------------------------ *)
(* Workload specs                                                      *)

(* A spec runs its workload and returns the measurement and the words the
   run allocated. *)
type spec = { s_name : string; s_run : unit -> Runner.measurement * float }

(* Words allocated by this domain so far: every minor-heap allocation,
   read exactly by [Gc.minor_words] ([Gc.quick_stat] and [Gc.counters]
   only advance their minor counts at minor collections on OCaml 5.1),
   plus the words allocated directly on the major heap. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Run [f] on this domain and count the words it allocates. *)
let counted f =
  let w0 = words () in
  let m = f () in
  (m, words () -. w0)

let set_spec name family structure ~topology ~nthreads ~ops ~size ~updates
    ~capacity =
  {
    s_name = name;
    s_run =
      (fun () ->
        counted @@ fun () ->
        let (module S : R.SET_OPS) = R.Sim_backend.find_named family structure in
        let w =
          let base =
            Runner.uniform_workload ~init_size:size ~update_pct:updates ()
          in
          if capacity then { base with Runner.capacity = Some (2 * size) }
          else base
        in
        Dstruct.Sl_common.reset_states ();
        Runner.run_set_sim ~topology ~nthreads ~ops ~seed:7 (module S) w);
  }

(* Four representative structures across the engine's regimes:
   - a pointer-chasing traversal workload (linked list) that lives on the
     inline read fast path;
   - a shallow-structure, high-update workload (hash table) dominated by
     RMW pricing and line ownership;
   - a tall-structure workload (skip list) mixing long traversals with
     multi-line updates;
   - the chaos-smoke shape: a tiny, heavily contended structure on a
     small flat machine with 2x oversubscription, which exercises the
     scheduling-window and suspension machinery the fuzzer leans on. *)
let specs =
  [
    set_spec "list/optik" R.Sim_backend.lists "optik" ~topology:Sim.Topology.xeon
      ~nthreads:8 ~ops:60_000 ~size:512 ~updates:40 ~capacity:false;
    set_spec "hashtable/optik-gl" R.Sim_backend.hashtables "optik-gl"
      ~topology:Sim.Topology.xeon ~nthreads:16 ~ops:120_000 ~size:1024
      ~updates:40 ~capacity:true;
    set_spec "skiplist/optik2" R.Sim_backend.skiplists "optik2"
      ~topology:Sim.Topology.opteron ~nthreads:12 ~ops:40_000 ~size:1024
      ~updates:20 ~capacity:false;
    set_spec "chaos-smoke" R.Sim_backend.lists "optik"
      ~topology:(Sim.Topology.uniform ~n:4 ())
      ~nthreads:8 ~ops:60_000 ~size:48 ~updates:50 ~capacity:false;
    (* The KV service end-to-end: shard routing, health refresh,
       retry/backoff and the history log on top of the store accesses —
       tracks the service-layer overhead, not just the structures. *)
    {
      s_name = "kv/ht-optik";
      s_run =
        (fun () ->
          counted @@ fun () ->
          let cfg =
            {
              Kv.default_config with
              Kv.ops = 12_000;
              seed = 7;
              plan =
                Some
                  (Kv.rolling_plan ~seed:7 ~nshards:4 ~count:2
                     ~down_for:60_000 ~stagger:4_000 ());
            }
          in
          fst (Kv.run cfg));
    };
    (* The multi-key transaction manager end-to-end: read-set tracking,
       commit-time validation and ticket ordering on top of the store
       accesses. *)
    {
      s_name = "txn/bank-ll";
      s_run =
        (fun () ->
          counted @@ fun () ->
          let cfg =
            {
              Txn.Workload.default_config with
              Txn.Workload.ops = 8_000;
              seed = 7;
            }
          in
          fst (Txn.Workload.run cfg));
    };
    (* Capacity: 10_000 virtual threads hammering 64 striped counters on
       a small flat machine. No set semantics — this row isolates the
       per-thread engine costs (arena records, line table, event heap)
       that the capacity push targets; it is the gate that a 10k-thread
       run stays cheap. *)
    {
      s_name = "cap/faa-10k";
      s_run =
        (fun () ->
          counted @@ fun () ->
          let nthreads = 10_000 in
          let topology = Sim.Topology.uniform ~n:4 () in
          Sim.Sim_rt.Probe.reset_all ();
          let group = Sim.Sched.fresh_group () in
          let locs =
            Array.init 64 (fun _ -> Sim.Sched.loc_packed ~group 0)
          in
          let run, host_s, _ =
            Runner.measured (fun () ->
                Runner.run_guarded ~topology ~nthreads ~ops_target:40_000
                  (fun tid ->
                    let i = ref tid in
                    while not (Sim.Sched.stop_requested ()) do
                      ignore (Sim.Sched.faa locs.(!i land 63) 1);
                      i := !i + 7;
                      Sim.Sched.tick ();
                      Sim.Sched.work 32
                    done))
          in
          Runner.measurement ~name:"cap/faa-10k" ~topology ~seed:7
            ~threads:nthreads ~host_s ~counters:[] ~final_size:0
            ~valid:(snd run = Runner.Complete) ~lat_classes:[||] [||] run);
    };
    (* The fleet driver end-to-end: spawn worker domains, reset each
       world, run a small batch of quick chaos trials per task. Ops =
       trials, so ops/host-sec is trials/sec — the number the fleet
       exists to multiply. Accesses and events are 0 (per-domain probe
       worlds are torn down with the workers). The words are the trials'
       own: each task's minor words on its worker domain, summed. The
       coordinating domain sees none of them, and its major-heap counts
       move when the GC folds in a joining worker's. Per-domain one-off
       set-up makes the sum grow by about 0.5% from 1 to 4 workers. *)
    {
      s_name = "fleet/chaos-quick";
      s_run =
        (fun () ->
          let trials = 12 and batch = 3 and seed = 7 in
          let jobs = min 4 (Harness.Fleet.default_jobs ()) in
          let words = ref 0. in
          let failed, host_s, _ =
            Runner.measured (fun () ->
                Chaos.fleet ~words
                  (Chaos.structure_family Chaos.quick_entries)
                  ~jobs ~trials ~batch ~seed
                  (Format.formatter_of_buffer (Buffer.create 1024)))
          in
          Runner.measurement ~name:"fleet/chaos-quick"
            ~topology:(Runner.host_clock "host") ~seed ~threads:jobs ~host_s
            ~counters:[] ~final_size:0 ~valid:(failed = 0) ~lat_classes:[||]
            [||]
            (Runner.host_stats ~ops:trials 0., Runner.Complete),
          !words);
    };
  ]

let measure ?(repeats = 3) (s : spec) =
  let repeats = max 1 repeats in
  let best = ref infinity in
  let fewest = ref infinity in
  let last = ref None in
  for _ = 1 to repeats do
    let m, w = s.s_run () in
    fewest := Float.min !fewest w;
    if m.Runner.host_s < !best then best := m.Runner.host_s;
    last := Some m
  done;
  let m = Option.get !last in
  {
    r_name = s.s_name;
    r_threads = m.Runner.threads;
    r_ops = m.Runner.ops;
    r_accesses =
      m.Runner.reads + m.Runner.writes + m.Runner.cas + m.Runner.faa;
    r_events = m.Runner.events;
    r_host_s = Float.max 1e-9 !best;
    r_words = !fewest;
    r_ocaml = Sys.ocaml_version;
  }

let run ?(repeats = 3) () = List.map (measure ~repeats) specs

(* ------------------------------------------------------------------ *)
(* JSON: one result object per line, read back with {!Obs.Report}      *)

module J = Obs.Report

let result_line r =
  Printf.sprintf
    "  {\"name\": \"%s\", \"threads\": %d, \"ops\": %d, \"accesses\": %d, \
     \"events\": %d, \"host_s\": %.6f, \"ops_per_hs\": %.1f, \
     \"accesses_per_hs\": %.1f, \"events_per_hs\": %.1f, \
     \"words_per_op\": %.2f, \"ocaml\": \"%s\"}"
    (J.escape r.r_name) r.r_threads r.r_ops r.r_accesses r.r_events r.r_host_s
    (ops_per_hs r) (accesses_per_hs r) (events_per_hs r) (words_per_op r)
    (J.escape r.r_ocaml)

let to_json results =
  String.concat "\n"
    ([ "{"; "  \"schema\": \"optik-hostperf-v1\","; "  \"results\": [" ]
    @ [ String.concat ",\n" (List.map result_line results) ]
    @ [ "  ]"; "}"; "" ])

let write_json path results =
  let oc = open_out path in
  output_string oc (to_json results);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)

(** One row of a committed [BENCH_sim.json]. Rows written before the
    allocation columns existed have no [b_words]/[b_ocaml]. *)
type baseline_row = {
  b_name : string;
  b_ops : float;  (** ops_per_hs *)
  b_acc : float;  (** accesses_per_hs *)
  b_words : float option;  (** words_per_op *)
  b_ocaml : string option;
}

(* The rows of a baseline file; none when it does not parse. *)
let parse_baseline content =
  let rows =
    match J.parse content with
    | Ok j -> Option.bind (J.member "results" j) J.to_list
    | Error _ -> None
  in
  Option.value rows ~default:[]
  |> List.filter_map (fun row ->
         let field k conv = Option.bind (J.member k row) conv in
         match
           ( field "name" J.to_str,
             field "ops_per_hs" J.to_number,
             field "accesses_per_hs" J.to_number )
         with
         | Some b_name, Some b_ops, Some b_acc ->
             Some
               {
                 b_name;
                 b_ops;
                 b_acc;
                 b_words = field "words_per_op" J.to_number;
                 b_ocaml = field "ocaml" J.to_str;
               }
         | _ -> None)

type regression = {
  g_name : string;
  g_metric : string;
  g_measured : float;
  g_baseline : float;
  g_tolerance_pct : float;
}

(** Allocation repeats to the word, so its gate is tight. *)
let words_tolerance_pct = 2.

(** Compare measured results against a baseline file's contents. A
    regression is a spec whose simulated-ops/host-sec or
    accesses/host-sec falls more than [tolerance_pct] percent below the
    committed number, or whose words/op grows more than
    {!words_tolerance_pct} percent above it. The words gate needs the
    baseline row to come from the running OCaml version (another
    compiler allocates differently); the names of rows where it does not
    are returned second, as skipped. Baseline specs missing from the
    measured set are ignored (removed workloads), measured specs missing
    from the baseline pass (new workloads get their numbers committed on
    the next baseline refresh). *)
let check_baseline ~baseline ~tolerance_pct results =
  let base = parse_baseline baseline in
  let skipped = ref [] in
  let regressions =
    List.concat_map
      (fun r ->
        match List.find_opt (fun b -> b.b_name = r.r_name) base with
        | None -> []
        | Some b ->
            let gate metric measured baseline tol crossed =
              if crossed then
                [
                  {
                    g_name = r.r_name;
                    g_metric = metric;
                    g_measured = measured;
                    g_baseline = baseline;
                    g_tolerance_pct = tol;
                  };
                ]
              else []
            in
            let rate metric measured baseline =
              gate metric measured baseline tolerance_pct
                (measured < baseline *. (1. -. (tolerance_pct /. 100.)))
            in
            let words =
              match b.b_words with
              | Some w when b.b_ocaml = Some r.r_ocaml ->
                  let m = words_per_op r in
                  gate "words_per_op" m w words_tolerance_pct
                    (m > w *. (1. +. (words_tolerance_pct /. 100.)))
              | _ ->
                  skipped := r.r_name :: !skipped;
                  []
            in
            rate "ops_per_hs" (ops_per_hs r) b.b_ops
            @ rate "accesses_per_hs" (accesses_per_hs r) b.b_acc
            @ words)
      results
  in
  (regressions, List.rev !skipped)

let pp_regression ppf g =
  Format.fprintf ppf "%s %s = %.2f against baseline %.2f (tolerance %.0f%%)"
    g.g_name g.g_metric g.g_measured g.g_baseline g.g_tolerance_pct

let pp_table ppf results =
  Format.fprintf ppf "%-22s %3s %12s %12s %10s %9s %10s@\n" "spec" "thr"
    "sim-ops/hs" "accesses/hs" "events/hs" "host-s" "words/op";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %3d %12.0f %12.0f %10.0f %9.4f %10.1f@\n"
        r.r_name r.r_threads (ops_per_hs r) (accesses_per_hs r)
        (events_per_hs r) r.r_host_s (words_per_op r))
    results
