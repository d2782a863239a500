(* Command-line front-end for the experiment engine: regenerate the
   paper's figures, run one ad-hoc workload against one data structure
   on either backend, drive the KV service, transactions and fuzzers,
   and compare run reports.

   Examples:
     optik_bench figures --ids fig5,fig12
     optik_bench figures --ids fault
     optik_bench figures --full
     optik_bench run --structure optik --family list --threads 12 \
                     --size 1024 --updates 40 --skewed
     optik_bench run --family list --structure optik --seed 5 --report a.json
     optik_bench diff a.json b.json
     optik_bench list *)

open Cmdliner

let out = print_endline

(* Host wall-clock reporting goes to stderr so that every subcommand's
   stdout stays byte-deterministic for a given seed (timings are the one
   thing that varies run to run). *)
let with_host_time label ops_done f =
  let r, dt, _ = Harness.Runner.measured f in
  let n = ops_done r in
  Printf.eprintf "[host] %s: %.3fs wall-clock%s\n%!" label dt
    (if n > 0 then
       Printf.sprintf ", %.0f ops/host-sec" (float_of_int n /. dt)
     else "");
  r

(* ---------------- shared flags ---------------- *)

(* Bad input exits 2 with one line on stderr and nothing on stdout. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let check_known what known names =
  match List.find_opt (fun n -> not (List.mem n known)) names with
  | Some bad ->
      die "unknown %s %S; known: %s" what bad (String.concat ", " known)
  | None -> ()

let lookup what table name =
  check_known what (List.map fst table) [ name ];
  List.assoc name table

(* An int flag checked as Cmdliner evaluates the term, so a bad value
   exits before any subcommand body runs. *)
let checked_int ?(docv = "N") name ~default ~doc ~ok ~must =
  let check n =
    if not (ok n) then die "--%s must be %s" name must;
    n
  in
  let arg = Arg.(value & opt int default & info [ name ] ~docv ~doc) in
  Term.(const check $ arg)

(* Counts are at least 1: an op budget of 0 means "unbounded" to the
   scheduler, and empty structures or thread sets are not workloads. *)
let count ?docv name ~default ~doc =
  checked_int ?docv name ~default ~doc ~ok:(fun n -> n >= 1) ~must:">= 1"

let pct name ~default ~doc =
  checked_int ~docv:"PCT" name ~default ~doc
    ~ok:(fun n -> n >= 0 && n <= 100)
    ~must:"in [0,100]"

(* Every subcommand keeps its own default seed and says what it drives. *)
let seed_arg default doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

let machines =
  [ ("xeon", Sim.Topology.xeon); ("opteron", Sim.Topology.opteron) ]

(* [--machine NAME], resolved to [(NAME, topology)]. *)
let machine_arg =
  let machine =
    Arg.(
      value & opt string "xeon"
      & info [ "machine" ] ~docv:"M"
          ~doc:(String.concat " | " (List.map fst machines)))
  in
  Term.(const (fun m -> (m, lookup "machine" machines m)) $ machine)

(* ---------------- run reports ---------------- *)

module J = Obs.Report

(* Every subcommand takes [--report FILE] and emits a schema-versioned
   JSON run report there (see DESIGN.md, "Run reports"). Reports carry
   only deterministic data: same command line + same seed => byte-
   identical file, diffable with [optik_bench diff]. *)
let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a schema-versioned JSON run report to $(docv): probe \
           counters, scheduler stats, latency summaries and the normalized \
           wasted-work section for every measured run. Deterministic for a \
           given seed; compare two reports with $(b,optik_bench diff).")

let write_report report mk =
  Option.iter
    (fun path ->
      Harness.Report.write path (mk ());
      Printf.eprintf "[host] wrote report %s\n%!" path)
    report

(* ---------------- request tracing ---------------- *)

(* The service subcommands (kv, txn) share these: --attrib records the
   run's journal and prints/reports per-phase latency attribution;
   --timeline FILE additionally writes the windowed virtual-time series
   as Chrome counter tracks. Either implies tracing; traced and untraced
   runs are cycle-identical (emissions never advance the virtual clock),
   so turning them on cannot change the measured numbers. The term is
   [(record_obs, timeline_file)]. *)
let tracing_arg =
  let attrib =
    Arg.(
      value & flag
      & info [ "attrib" ]
          ~doc:
            "Trace every request and attribute its latency to typed phases \
             (queue, route, store, backoff, acquire, validate, commit, \
             resync, dual-write): prints the per-phase and per-outcome \
             summary and attaches the $(b,attrib) and $(b,timeline) \
             sections to --report (diffable with $(b,optik_bench diff)).")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Write the virtual-time timeline — windowed completion, retry, \
             abort, timeout, shed, failover, crash and storm counts plus \
             per-phase occupancy — as Chrome counter tracks to $(docv) \
             (load in Perfetto). Implies the tracing --attrib turns on.")
  in
  Term.(
    const (fun attrib timeline -> (attrib || timeline <> None, timeline))
    $ attrib $ timeline)

let print_attrib (a : Obs.Attrib.t) =
  let module A = Obs.Attrib in
  Printf.printf "  traced          %d requests (%d dropped mid-run)\n"
    (List.length a.A.reqs) a.A.dropped;
  let grand = List.fold_left (fun s (r : A.areq) -> s + r.A.a_total) 0 a.A.reqs in
  List.iter
    (fun p ->
      let total =
        List.fold_left
          (fun s (r : A.areq) ->
            s + Option.value ~default:0 (List.assoc_opt p r.A.a_phases))
          0 a.A.reqs
      in
      if total > 0 then
        Printf.printf "    phase %-10s %10d cycles  %5.1f%%\n" p total
          (100. *. float_of_int total /. float_of_int (max 1 grand)))
    (List.sort_uniq String.compare ("other" :: a.A.phases));
  let by_outcome =
    List.filter_map
      (fun o ->
        let n =
          List.length
            (List.filter
               (fun (r : A.areq) -> String.equal r.A.a_outcome o)
               a.A.reqs)
        in
        if n = 0 then None else Some (Printf.sprintf "%s=%d" o n))
      Obs.Tracectx.outcomes
  in
  if by_outcome <> [] then
    Printf.printf "    outcomes        %s\n" (String.concat "  " by_outcome)

(* Only the windows where something went wrong: quiet windows carry no
   diagnosis, and 24 all-zero lines would bury the storm/crash ones. *)
let print_timeline (tl : Obs.Attrib.timeline) =
  let module A = Obs.Attrib in
  Printf.printf "  timeline        %d windows x %d cycles\n" tl.A.tl_nwindows
    tl.A.tl_width;
  for w = 0 to tl.A.tl_nwindows - 1 do
    if
      tl.A.tl_aborts.(w) + tl.A.tl_timeouts.(w) + tl.A.tl_sheds.(w)
      + tl.A.tl_failovers.(w) + tl.A.tl_crashes.(w) + tl.A.tl_storms.(w)
      > 0
    then
      Printf.printf
        "    w%02d reqs=%-5d retries=%-5d aborts=%-4d timeouts=%-4d \
         sheds=%-4d failovers=%-4d crashes=%-3d storms=%d\n"
        w tl.A.tl_reqs.(w) tl.A.tl_retries.(w) tl.A.tl_aborts.(w)
        tl.A.tl_timeouts.(w) tl.A.tl_sheds.(w) tl.A.tl_failovers.(w)
        tl.A.tl_crashes.(w) tl.A.tl_storms.(w)
  done

(* Analyze a run's trace: print the summaries, write the Chrome timeline
   when asked, and return the report sections. *)
let trace_analysis ~timeline_file (trace : Obs.Journal.record option) =
  match trace with
  | None -> []
  | Some rec_ ->
      let a = Obs.Attrib.analyze rec_ in
      let tl = Obs.Attrib.timeline rec_ in
      print_attrib a;
      print_timeline tl;
      (match timeline_file with
      | None -> ()
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Obs.Attrib.timeline_chrome tl));
          Printf.eprintf "[host] wrote timeline %s\n%!" path);
      [ Harness.Report.attrib_section a; Harness.Report.timeline_section tl ]

(* ---------------- measurement printers ---------------- *)

let print_aborted ?(detail = false) (m : Harness.Runner.measurement) =
  match m.outcome with
  | Harness.Runner.Complete -> ()
  | Harness.Runner.Aborted r ->
      Printf.printf "  ABORTED: %s\n"
        (Format.asprintf "%a" Sim.Sched.pp_verdict r.Sim.Sched.r_verdict);
      if detail then Format.printf "%a@?" Sim.Sched.pp_report r

(* The body kv and txn share: the ABORTED line, simulated throughput in
   [unit], the service's [extra] lines, then per-class latency tails and
   every probe counter. *)
let print_service (m : Harness.Runner.measurement) ~unit extra =
  print_aborted m;
  Printf.printf "  throughput      %.3f %s (simulated)\n" m.mops unit;
  extra ();
  Array.iteri
    (fun i cls ->
      let l = m.lat.(i) in
      if l.Harness.Pstats.n > 0 then
        Printf.printf
          "  %-8s n=%-6d p50=%-8d p95=%-8d p99=%-8d p999=%d cycles\n" cls
          l.Harness.Pstats.n l.Harness.Pstats.p50 l.Harness.Pstats.p95
          l.Harness.Pstats.p99 l.Harness.Pstats.p999)
    m.lat_classes;
  List.iter (fun (k, v) -> Printf.printf "  counter %-24s %d\n" k v) m.counters

(* A service run fails on its oracle, an abort or an invalid structure. *)
let exit_unless ok (m : Harness.Runner.measurement) =
  if (not ok) || Harness.Runner.aborted m || not m.valid then exit 1

(* ---------------- figures ---------------- *)

let figures_cmd =
  let ids =
    let doc =
      "Comma-separated experiment ids (default: all). Known ids: "
      ^ String.concat ", " Figures.Experiments.all_ids
    in
    Arg.(value & opt (some string) None & info [ "ids" ] ~docv:"IDS" ~doc)
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Dense thread sweeps (slower).")
  in
  let seed =
    seed_arg 42
      "Workload seed threaded into every runner call (default 42, the seed \
       the committed figures use). Two seeds make an A/B pair for \
       $(b,optik_bench diff)."
  in
  let run ids full seed report =
    let mode =
      let base =
        if full then Figures.Experiments.full else Figures.Experiments.quick
      in
      { base with Figures.Experiments.seed }
    in
    let ids =
      match ids with
      | None -> Figures.Experiments.all_ids
      | Some s -> String.split_on_char ',' s |> List.map String.trim
    in
    check_known "experiment id" Figures.Experiments.all_ids ids;
    let claims = ref [] in
    with_host_time
      (Printf.sprintf "figures %s" (String.concat "," ids))
      (fun _ -> 0)
      (fun () ->
        List.iter
          (fun id ->
            with_host_time id
              (fun _ -> 0)
              (fun () ->
                let figs, cs = Figures.Experiments.run_id mode id in
                List.iter (Figures.Render.figure out) figs;
                claims := !claims @ cs))
          ids);
    Figures.Render.claims out !claims;
    let runs = Figures.Experiments.drain_measurements () in
    write_report report (fun () ->
        Harness.Report.make ~subcommand:"figures" ~seed:(Some seed)
          ~params:
            [ ("ids", J.Str (String.concat "," ids)); ("full", J.Bool full) ]
          runs)
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate the paper's figures (simulator). $(b,--ids fault) is \
          the fault-injection experiment: crash/stall threads inside \
          critical sections and compare blocking vs lock-free behavior \
          under the liveness watchdog.")
    Term.(const run $ ids $ full $ seed $ report_arg)

(* ---------------- single ad-hoc run ---------------- *)

let set_workload ?capacity ~skewed ~size ~updates () =
  (if skewed then Harness.Runner.skewed_workload
   else Harness.Runner.uniform_workload)
    ?capacity ~init_size:size ~update_pct:updates ()

let families =
  let module SB = Harness.Registry.Sim_backend in
  [
    ("map", SB.maps);
    ("list", SB.lists);
    ("hashtable", SB.hashtables);
    ("skiplist", SB.skiplists);
    ("bst", SB.bsts);
  ]

let run_cmd =
  let family =
    Arg.(
      value
      & opt string "list"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:(String.concat " | " (List.map fst families)))
  in
  let structure =
    Arg.(
      value
      & opt string "optik"
      & info [ "structure" ] ~docv:"NAME"
          ~doc:"Structure name within the family (as in the figures).")
  in
  let threads = count "threads" ~default:10 ~doc:"Thread count." in
  let size = count "size" ~default:1024 ~doc:"Initial size." in
  let updates =
    pct "updates" ~default:40
      ~doc:"Attempted update percentage (split insert/delete)."
  in
  let skewed =
    Arg.(value & flag & info [ "skewed" ] ~doc:"Zipfian keys (a = 0.9).")
  in
  let ops = count "ops" ~default:20_000 ~doc:"Total operations." in
  let seed =
    seed_arg 42
      "RNG seed: same seed, same workload, same simulated schedule, same \
       result. The effective seed is always printed so any run can be \
       replayed."
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the run's observability journal and write it to $(docv): \
             Chrome trace_event JSON (load in chrome://tracing or Perfetto), \
             or JSONL when $(docv) ends in .jsonl. Deterministic: same seed, \
             byte-identical file. Recording never perturbs the simulated \
             clock, so traced and untraced runs report identical figures.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record the run and print contention profiles: the hot-line \
             table (coherence transfers, failed CAS, owner bounces and \
             serialization stalls per allocation site), the ops/restarts \
             time series and per-thread totals.")
  in
  let run family structure threads size updates skewed (machine, topology) ops
      seed trace profile report =
    let (module S : Harness.Registry.SET_OPS) =
      lookup (family ^ " structure")
        (List.map
           (fun (module S : Harness.Registry.SET_OPS) ->
             (S.name, (module S : Harness.Registry.SET_OPS)))
           (lookup "family" families family))
        structure
    in
    let w =
      set_workload ~skewed ~size ~updates
        ?capacity:
          (match family with "map" | "hashtable" -> Some size | _ -> None)
        ()
    in
    (* A report wants hot-line stall attribution, so it records the
       journal like --profile does; recording never perturbs the
       simulated clock, so the printed figures are unchanged. *)
    let record_obs = profile || trace <> None || report <> None in
    let m =
      Harness.Runner.run_set_sim ~topology ~nthreads:threads ~ops ~seed
        ~record_obs (module S) w
    in
    Printf.printf
      "%s/%s on %s, %d threads, size %d, %d%% attempted updates%s, seed %d\n"
      family structure machine threads size updates
      (if skewed then " (zipf 0.9)" else "")
      seed;
    print_aborted ~detail:true m;
    Printf.printf "  throughput      %.2f Mops/s\n" m.Harness.Runner.mops;
    Printf.printf "  effective upd   %.1f%%\n" m.Harness.Runner.eff_update_pct;
    Printf.printf "  CAS total/failed %d/%d\n" m.Harness.Runner.cas
      m.Harness.Runner.cas_failed;
    Printf.printf "  final size      %d (valid: %b)\n"
      m.Harness.Runner.final_size m.Harness.Runner.valid;
    Array.iteri
      (fun i cls ->
        let l = m.Harness.Runner.lat.(i) in
        if l.Harness.Pstats.n > 0 then
          Printf.printf "  %-9s p50=%-8d p95=%d cycles\n" cls
            l.Harness.Pstats.p50 l.Harness.Pstats.p95)
      Harness.Runner.class_names;
    List.iter
      (fun (k, v) -> Printf.printf "  counter %-28s %d\n" k v)
      m.Harness.Runner.counters;
    Printf.eprintf "[host] run %s/%s: %.3fs wall-clock, %.0f ops/host-sec\n%!"
      family structure m.Harness.Runner.host_s
      (float_of_int m.Harness.Runner.ops /. m.Harness.Runner.host_s);
    (match m.Harness.Runner.obs with
    | None -> ()
    | Some s ->
        (match trace with
        | None -> ()
        | Some path ->
            Obs.Trace.write_file path s.Obs.Profile.s_record;
            Printf.printf "  trace           %s (%d events)\n" path
              s.Obs.Profile.s_events);
        if profile then Format.printf "%a@?" Obs.Profile.pp s);
    write_report report (fun () ->
        Harness.Report.make ~subcommand:"run" ~seed:(Some seed)
          ~params:
            [
              ("family", J.Str family);
              ("structure", J.Str structure);
              ("threads", J.Int threads);
              ("size", J.Int size);
              ("updates", J.Int updates);
              ("skewed", J.Bool skewed);
              ("machine", J.Str machine);
              ("ops", J.Int ops);
            ]
          [ (Printf.sprintf "%s/%s" family structure, m) ])
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload against one structure.")
    Term.(
      const run $ family $ structure $ threads $ size $ updates $ skewed
      $ machine_arg $ ops $ seed $ trace $ profile $ report_arg)

(* ---------------- soak ---------------- *)

(* A bounded, deterministic soak sweep: the sampling shape of
   test/soak.ml, but runs-bounded instead of time-bounded so its output
   (and report) is reproducible. The unbounded wall-clock soak remains
   test/soak.exe. *)
let soak_cmd =
  let runs_arg =
    count "runs" ~default:6 ~doc:"Number of randomized runs (default 6)."
  in
  let seed =
    seed_arg 424242
      "Sweep seed (default 424242, the golden-digest seed): drives \
       structure, topology, thread-count and workload sampling."
  in
  let run runs seed report =
    let module R = Harness.Registry in
    let rng = Harness.Rng.create seed in
    let topologies =
      [ Sim.Topology.xeon; Sim.Topology.opteron; Sim.Topology.uniform ~n:4 () ]
    in
    let module SB = R.Sim_backend in
    let all_sets = SB.maps @ SB.lists @ SB.hashtables in
    let failures = ref 0 in
    let measured = ref [] in
    with_host_time
      (Printf.sprintf "soak %d runs" runs)
      (fun _ -> 0)
      (fun () ->
        for i = 1 to runs do
          let run_seed = Harness.Rng.next rng land 0xFFFFFF in
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
            set_workload ~skewed ~size ~updates ~capacity:(2 * size) ()
          in
          Dstruct.Sl_common.reset_states ();
          let m =
            Harness.Runner.run_set_sim ~topology:topo ~nthreads ~ops
              ~seed:run_seed
              ~watchdog:
                { Sim.Sched.check_events = 500_000;
                  starve_cycles = 50_000_000 }
              (module S)
              w
          in
          let complete =
            match m.Harness.Runner.outcome with
            | Harness.Runner.Complete -> true
            | Harness.Runner.Aborted _ -> false
          in
          if (not complete) || not m.Harness.Runner.valid then incr failures;
          Printf.printf
            "%d %s topo=%s thr=%d size=%d upd=%d skew=%b ops=%d seed=%d -> \
             ops=%d mops=%.6f valid=%b complete=%b\n"
            i S.name topo.Sim.Topology.name nthreads size updates skewed ops
            run_seed m.Harness.Runner.ops m.Harness.Runner.mops
            m.Harness.Runner.valid complete;
          measured :=
            (Printf.sprintf "soak/%02d/%s" i S.name, m) :: !measured
        done);
    Printf.printf "soak finished: %d runs, %d failures\n" runs !failures;
    write_report report (fun () ->
        Harness.Report.make ~subcommand:"soak" ~seed:(Some seed)
          ~params:[ ("runs", J.Int runs) ]
          (List.rev !measured));
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Bounded deterministic soak sweep: randomized structures, \
          topologies and workloads from one seed, invariant-checked; \
          reproducible, unlike the time-bounded test/soak.exe.")
    Term.(const run $ runs_arg $ seed $ report_arg)

(* ---------------- trial families ---------------- *)

(* The fuzz and replay modes every trial family shares: [chaos] itself,
   and [kv]/[txn] under --fuzz/--replay. A replay string that does not
   parse exits 2. Returns the number of failures. *)
let trial_mode fam ~runs ~seed ~replay ppf =
  match replay with
  | Some s -> (
      try
        with_host_time (fam.Chaos.command ^ " replay")
          (fun _ -> 1)
          (fun () -> Chaos.replay fam s ppf)
      with Invalid_argument msg -> die "%s" msg)
  | None ->
      with_host_time
        (Printf.sprintf "%s fuzz %d trials" fam.Chaos.command runs)
        (fun _ -> runs)
        (fun () -> Chaos.fuzz fam ~runs ~seed ppf)

(* [--fuzz N] / [--replay TRIAL] for the service subcommands: [what]
   names the trial, [fuzzes] says what a fuzz trial draws and checks. *)
let fuzz_replay_arg ~what ~fuzzes =
  let fuzz =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            ("Instead of one run: fuzz $(docv) random " ^ fuzzes
           ^ ", shrinking failures to one-line repros."))
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TRIAL"
          ~doc:("Replay one " ^ what ^ " trial string (as emitted by --fuzz)."))
  in
  Term.(const (fun fuzz replay -> (fuzz, replay)) $ fuzz $ replay)

(* Under --fuzz N (which wins) or --replay TRIAL, run [fam]'s trials
   instead of the subcommand's single run [one]. *)
let or_trials fam ~seed (fuzz, replay) one =
  if fuzz > 0 || replay <> None then begin
    let replay = if fuzz > 0 then None else replay in
    if trial_mode fam ~runs:fuzz ~seed ~replay Format.std_formatter > 0 then
      exit 1
  end
  else one ()

(* Run a trial stream [f ppf] to stdout. With --report it renders into a
   buffer instead, so the same lines land both on stdout (unchanged
   bytes) and in the report's "trials" section. Returns the failures. *)
let trial_stream report ~subcommand ~seed ~params f =
  match report with
  | None -> f Format.std_formatter
  | Some _ ->
      let buf = Buffer.create 8192 in
      let ppf = Format.formatter_of_buffer buf in
      let failures = f ppf in
      Format.pp_print_flush ppf ();
      let output = Buffer.contents buf in
      print_string output;
      let lines =
        String.split_on_char '\n' output
        |> List.filter (fun l -> String.trim l <> "")
      in
      write_report report (fun () ->
          J.make ~subcommand ~seed:(Some seed) ~params ~runs:[]
            ~sections:
              [
                ("failures", J.Int failures);
                ("trials", J.Arr (List.map (fun l -> J.Str l) lines));
              ]);
      failures

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let runs = count "runs" ~default:100 ~doc:"Number of random trials." in
  let seed =
    seed_arg 1
      "Fuzzing seed. Trial $(i,i) is drawn from seed + i*1000003, so a \
       (seed, runs) pair is byte-deterministic and any sub-range can be \
       re-fuzzed independently."
  in
  let structures =
    Arg.(
      value
      & opt (some string) None
      & info [ "structures" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated structure names to fuzz (default: all). Names \
             as printed in trial lines, e.g. list/harris,queue/ms-lf.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Restrict to the fast representatives (no skip lists, no BST).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TRIAL"
          ~doc:
            "Replay one trial string (as emitted in a repro line) instead of \
             fuzzing, and print its verdict.")
  in
  let run runs seed structures quick replay report =
    let entries =
      if quick then Chaos.quick_entries else Chaos.default_entries
    in
    let entries =
      match structures with
      | None -> entries
      | Some s ->
          let names = String.split_on_char ',' s |> List.map String.trim in
          check_known "structure"
            (List.map (fun e -> e.Chaos.e_name) Chaos.default_entries)
            names;
          List.filter
            (fun e -> List.mem e.Chaos.e_name names)
            Chaos.default_entries
    in
    if entries = [] then die "no structures selected";
    (* Replay resolves names against the full table, so a repro from a
       --quick run always parses. *)
    let failures =
      trial_stream report ~subcommand:"chaos" ~seed
        ~params:
          [
            ("runs", J.Int runs);
            ("quick", J.Bool quick);
            ( "structures",
              match structures with None -> J.Null | Some s -> J.Str s );
            ("replay", match replay with None -> J.Null | Some s -> J.Str s);
          ]
        (trial_mode
           (Chaos.structure_family
              (if replay = None then entries else Chaos.default_entries))
           ~runs ~seed ~replay)
    in
    if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault/schedule fuzzing over the registry structures, \
          with crash-aware linearizability, liveness and invariant oracles, \
          and counterexample shrinking.")
    Term.(const run $ runs $ seed $ structures $ quick $ replay $ report_arg)

(* ---------------- fleet ---------------- *)

let fleet_cmd =
  let kind =
    Arg.(
      value
      & opt (enum (List.map (fun k -> (k, k)) [ "chaos"; "kv"; "txn" ])) "chaos"
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Which fuzzer to farm out: $(b,chaos) (registry structures), \
             $(b,kv) (sharded KV service) or $(b,txn) (optimistic \
             transactions).")
  in
  let trials = count "trials" ~default:100 ~doc:"Total number of random trials." in
  let batch =
    count ~docv:"B" "batch" ~default:10
      ~doc:
        "Trials per fleet task. Smaller batches balance better across \
         domains; larger ones amortize per-task world resets. Output bytes \
         do not depend on the batch size."
  in
  let jobs =
    checked_int ~docv:"J" "jobs" ~default:0 ~ok:(fun n -> n >= 0) ~must:">= 0"
      ~doc:
        "Worker domains (default: the host's recommended domain count minus \
         one). Output bytes do not depend on $(docv): trial i is always \
         drawn from seed + i*1000003 and every task starts from a pristine \
         per-domain simulator world."
  in
  let seed =
    seed_arg 1 "Fuzzing seed, same seeding scheme as the serial fuzzers."
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "For $(b,--kind chaos): restrict to the fast representatives \
             (no skip lists, no BST).")
  in
  let run kind trials batch jobs seed quick report =
    let jobs = if jobs = 0 then Harness.Fleet.default_jobs () else jobs in
    if quick && kind <> "chaos" then
      die "fleet: --quick only applies to --kind chaos";
    let families =
      [
        Chaos.Family
          (Chaos.structure_family
             (if quick then Chaos.quick_entries else Chaos.default_entries));
        Chaos.Family Chaos.kv_family;
        Chaos.Family Chaos.txn_family;
      ]
    in
    match List.find (fun (Chaos.Family f) -> f.Chaos.command = kind) families with
    | Chaos.Family fam ->
        (* Report params exclude jobs/batch: the report is a function of
           (kind, trials, seed, quick) alone, so fleets of different
           widths diff clean. *)
        let failures =
          trial_stream report ~subcommand:"fleet" ~seed
            ~params:
              [
                ("kind", J.Str fam.Chaos.name);
                ("trials", J.Int trials);
                ("quick", J.Bool quick);
              ]
            (fun ppf ->
              with_host_time
                (Printf.sprintf "fleet %s %d trials (%d jobs)" fam.Chaos.name
                   trials jobs)
                (fun _ -> trials)
                (fun () -> Chaos.fleet fam ~jobs ~trials ~batch ~seed ppf))
        in
        if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Domain-parallel trial fleet: farm chaos/kv/txn fuzz trials \
          across worker domains in seeded batches. Byte-identical stdout \
          for any --jobs/--batch split of the same (kind, trials, seed).")
    Term.(
      const run $ kind $ trials $ batch $ jobs $ seed $ quick $ report_arg)

(* ---------------- kv ---------------- *)

let kv_cmd =
  let rep =
    Arg.(
      value
      & opt string "ht-optik"
      & info [ "rep" ] ~docv:"REP"
          ~doc:
            ("Shard store representation: "
           ^ String.concat " | " Kv.rep_names ^ "."))
  in
  let shards =
    count "shards" ~default:4
      ~doc:"Shard count (each shard is a primary + replica store pair)."
  in
  let threads = count "threads" ~default:8 ~doc:"Open-loop client threads." in
  let ops = count "ops" ~default:6_000 ~doc:"Requests to serve." in
  let keys =
    count "keys" ~default:4096 ~doc:"Key space [1..N], zipf 0.9 popularity."
  in
  let read = pct "read" ~default:70 ~doc:"Read (get) percentage." in
  let scan =
    pct "scan" ~default:10
      ~doc:"Scan percentage (the rest after reads and scans is puts)."
  in
  let transfer =
    pct "transfer-pct" ~default:0
      ~doc:
        "Multi-key transfer percentage (carved from the put share): each \
         transfer moves units between two account keys — usually on \
         different shards — inside one optimistic transaction, and the \
         oracle additionally checks account conservation. Unsupported \
         together with fault plans (wipes lose balances)."
  in
  let accounts =
    count "accounts" ~default:16
      ~doc:
        "Account keys for --transfer-pct, in the dedicated range keys+1 .. \
         keys+N."
  in
  let seed =
    seed_arg 42
      "Workload seed: same seed (and same fault plan), byte-identical \
       output and report."
  in
  let deadline =
    Arg.(
      value & opt int Kv.default_policy.Kv.deadline
      & info [ "deadline" ] ~docv:"CYCLES"
          ~doc:"Per-request deadline from intended arrival.")
  in
  let retries =
    Arg.(
      value & opt int Kv.default_policy.Kv.max_retries
      & info [ "retries" ] ~docv:"N" ~doc:"Retry budget per request.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Fault plan (Fault.of_string grammar), e.g. \
             '7;shardcrash(0:120000)@op-boundary,h500'. Store index i is \
             shard i's primary, shards+i its replica.")
  in
  let rolling =
    Arg.(
      value & opt int 0
      & info [ "rolling" ] ~docv:"N"
          ~doc:
            "Roll $(docv) crashes round-robin over the shard pairs \
             (alternating primary/replica per round). More crashes than \
             shards is legal under the re-armable warranty: each pair \
             absorbs one crash per completed resync, so such plans need a \
             finite --down-for and a --stagger spanning the resync window. \
             Ignored when --faults is given.")
  in
  let down_for =
    Arg.(
      value & opt int 120_000
      & info [ "down-for" ] ~docv:"CYCLES"
          ~doc:"How long each rolling crash keeps the store down.")
  in
  let stagger =
    Arg.(
      value & opt int 0
      & info [ "stagger" ] ~docv:"N"
          ~doc:
            "Requests between rolling crashes (default: ops / (rolling+1)).")
  in
  let broken_retry =
    Arg.(
      value & flag
      & info [ "broken-retry" ]
          ~doc:
            "Deliberately broken retry policy: every retry writes a fresh \
             element instead of re-writing the same one, so a retry after a \
             lost ack duplicates the visible effect. The oracle must FAIL \
             under crashes — the negative control.")
  in
  let no_replication =
    Arg.(
      value & flag
      & info [ "no-replication" ]
          ~doc:
            "Write only the primary copy. A primary crash then loses acked \
             writes: the oracle must FAIL — the other negative control.")
  in
  let degraded_for =
    Arg.(
      value
      & opt int Kv.default_policy.Kv.degraded_cycles
      & info [ "degraded-for" ] ~docv:"CYCLES"
          ~doc:
            "Degraded window after a store recovers: scans shed on it and \
             resync waits this long before copying the peer's contents \
             back.")
  in
  let resync_batch =
    Arg.(
      value
      & opt int Kv.default_policy.Kv.resync_batch
      & info [ "resync-batch" ] ~docv:"N"
          ~doc:"Keys copied per resync batch (epoch fence between batches).")
  in
  let broken_resync =
    Arg.(
      value
      & opt (some (enum [ ("dual-write", `Dual_write); ("fencing", `Fencing) ]))
          None
      & info [ "broken-resync" ] ~docv:"MODE"
          ~doc:
            "Deliberately broken resync, the negative controls: 'dual-write' \
             skips writing to a mid-resync copy (writes acked during the \
             copy window then live only in the survivor and vanish at its \
             next crash); 'fencing' skips the epoch fence (a copier racing \
             a mid-copy crash \"completes\" and re-arms a voided pair). \
             Both must make the oracle FAIL under multi-crash plans.")
  in
  let trials =
    fuzz_replay_arg ~what:"KV"
      ~fuzzes:
        "KV trials (shard crashes, client crashes, stalls, storms) under the \
         service oracles"
  in
  let run rep shards threads ops keys read scan transfer accounts
      (machine, topo) seed deadline retries faults rolling down_for stagger
      broken_retry no_replication degraded_for resync_batch broken_resync
      trials report (record_obs, timeline) =
    check_known "rep" Kv.rep_names [ rep ];
    if read + scan + transfer > 100 then
      die "--read + --scan + --transfer-pct must be at most 100";
    or_trials Chaos.kv_family ~seed trials @@ fun () ->
    let plan =
      try
        match faults with
        | Some s -> Some (Sim.Fault.of_string s)
        | None when rolling > 0 ->
            let stagger =
              if stagger > 0 then stagger else max 1 (ops / (rolling + 1))
            in
            Some
              (Kv.rolling_plan ~seed ~nshards:shards ~count:rolling ~down_for
                 ~stagger ())
        | None -> None
      with Invalid_argument msg -> die "%s" msg
    in
    if transfer > 0 && plan <> None then
      die
        "--transfer-pct cannot be combined with fault plans (a wipe loses \
         account balances)";
    let policy =
      {
        Kv.default_policy with
        Kv.deadline;
        max_retries = retries;
        idempotent = not broken_retry;
        replicate = not no_replication;
        degraded_cycles = degraded_for;
        resync_batch;
        resync_dual_write = broken_resync <> Some `Dual_write;
        resync_fencing = broken_resync <> Some `Fencing;
      }
    in
    let cfg =
      {
        Kv.rep;
        nshards = shards;
        threads;
        ops;
        seed;
        topo;
        workload =
          {
            Kv.default_workload with
            Kv.keys;
            read_pct = read;
            scan_pct = scan;
            transfer_pct = transfer;
            accounts;
          };
        policy;
        plan;
      }
    in
    let m, r =
      with_host_time
        (Printf.sprintf "kv %s" rep)
        (fun (m, _) -> m.Harness.Runner.ops)
        (fun () -> Kv.run ~record_obs cfg)
    in
    Printf.printf
      "kv/%s on %s, %d shards (primary+replica), %d clients, %d requests, \
       %d%% reads %d%% scans, seed %d\n"
      rep machine shards threads ops read scan seed;
    Printf.printf "  faults          %s\n"
      (match plan with None -> "none" | Some p -> Sim.Fault.to_string p);
    print_service m ~unit:"Mreq/s" (fun () ->
        Printf.printf "  acked writes    %d (%.1f%% of requests)\n"
          r.Kv.res_oracle.Kv.acked_writes m.Harness.Runner.eff_update_pct;
        let ctr name =
          Option.value ~default:0
            (List.assoc_opt name m.Harness.Runner.counters)
        in
        Printf.printf
          "  retries %d  timeouts %d  sheds %d  failovers %d  backoff-cycles \
           %d\n"
          (ctr "kv.retries") (ctr "kv.timeouts") (ctr "kv.sheds")
          (ctr "kv.failovers") (ctr "kv.backoff-cycles");
        if ctr "kv.resyncs" > 0 || ctr "kv.resync-aborts" > 0 then
          Printf.printf "  resyncs %d  aborted %d  re-arms %d\n"
            (ctr "kv.resyncs") (ctr "kv.resync-aborts") (ctr "kv.rearms"));
    Array.iteri
      (fun i (p, rr) ->
        let s = r.Kv.res_shard_lat.(i) in
        Printf.printf
          "  shard s%-2d       primary=%-6d replica=%-6d p99=%-8d p999=%-8d \
           warranty=%s\n"
          i p rr s.Harness.Pstats.p99 s.Harness.Pstats.p999
          (Kv.warranty_name r.Kv.res_warranty.(i)))
      r.Kv.res_shard_sizes;
    if r.Kv.res_events <> [] then begin
      Printf.printf "  failover timeline:\n";
      List.iter (fun e -> Printf.printf "    %s\n" e) r.Kv.res_events
    end;
    Printf.printf "  %s\n" (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle);
    let trace_sections = trace_analysis ~timeline_file:timeline r.Kv.res_trace in
    write_report report (fun () ->
        Harness.Report.make ~subcommand:"kv" ~seed:(Some seed)
          ~params:
            [
              ("rep", J.Str rep);
              ("shards", J.Int shards);
              ("threads", J.Int threads);
              ("ops", J.Int ops);
              ("keys", J.Int keys);
              ("read", J.Int read);
              ("scan", J.Int scan);
              ("transfer_pct", J.Int transfer);
              ("accounts", J.Int accounts);
              ("machine", J.Str machine);
              ( "faults",
                match plan with
                | None -> J.Null
                | Some p -> J.Str (Sim.Fault.to_string p) );
              ("broken_retry", J.Bool broken_retry);
              ("no_replication", J.Bool no_replication);
              ("degraded_for", J.Int degraded_for);
              ("resync_batch", J.Int resync_batch);
              ( "broken_resync",
                match broken_resync with
                | None -> J.Null
                | Some `Dual_write -> J.Str "dual-write"
                | Some `Fencing -> J.Str "fencing" );
            ]
          ~sections:(Kv.report_section cfg r :: trace_sections)
          [ ("kv/" ^ rep, m) ]);
    (* Exit on the warranted verdict: a loss in a voided pair is the one
       outage f = 1 permits (and the run reports it); any other loss,
       duplicate, abort or invalid structure is a failure. *)
    exit_unless r.Kv.res_oracle.Kv.warranted_ok m
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:
         "Sharded KV service over the registry structures: open-loop zipfian \
          clients, deadlines, retry/backoff, replica failover, scan \
          shedding, rolling shard crashes, and the acknowledged-write \
          exactly-once oracle.")
    Term.(
      const run $ rep $ shards $ threads $ ops $ keys $ read $ scan $ transfer
      $ accounts $ machine_arg $ seed $ deadline $ retries $ faults $ rolling
      $ down_for $ stagger $ broken_retry $ no_replication $ degraded_for
      $ resync_batch $ broken_resync $ trials $ report_arg $ tracing_arg)

(* ---------------- txn ---------------- *)

let txn_cmd =
  let d = Txn.Workload.default_config in
  let rep =
    Arg.(
      value
      & opt string d.Txn.Workload.rep
      & info [ "rep" ] ~docv:"REP"
          ~doc:
            ("Registry structure each bank object uses: "
           ^ String.concat " | " Txn.Workload.rep_names ^ "."))
  in
  let objects =
    count "objects" ~default:d.Txn.Workload.objects
      ~doc:"Independent structures transactions span."
  in
  let accounts =
    count "accounts" ~default:d.Txn.Workload.accounts
      ~doc:"Accounts per structure."
  in
  let threads =
    count "threads" ~default:d.Txn.Workload.threads ~doc:"Worker threads."
  in
  let ops = count "ops" ~default:d.Txn.Workload.ops ~doc:"Transactions to run." in
  let transfer =
    pct "transfer-pct" ~default:d.Txn.Workload.transfer_pct
      ~doc:"Transfer percentage; the rest are read-only snapshot audits."
  in
  let seed =
    seed_arg d.Txn.Workload.seed
      "Workload seed: same seed, byte-identical output and report."
  in
  let broken =
    Arg.(
      value & flag
      & info [ "broken" ]
          ~doc:
            "Deliberately broken commit protocol: skip commit-time \
             validation, so racing transfers commit on stale reads. The \
             serializability oracle must FAIL — the negative control.")
  in
  let trials =
    fuzz_replay_arg ~what:"transaction"
      ~fuzzes:
        "transaction trials (reps, topologies, contention levels) under the \
         strict serializability oracle"
  in
  let run rep objects accounts threads ops transfer (machine, topo) seed broken
      trials report (record_obs, timeline) =
    check_known "rep" Txn.Workload.rep_names [ rep ];
    or_trials Chaos.txn_family ~seed trials @@ fun () ->
    let cfg =
      {
        Txn.Workload.rep;
        objects;
        accounts;
        initial = d.Txn.Workload.initial;
        threads;
        ops;
        seed;
        transfer_pct = transfer;
        topo;
        broken;
      }
    in
    let m, r =
      with_host_time
        (Printf.sprintf "txn %s" rep)
        (fun (m, _) -> m.Harness.Runner.ops)
        (fun () -> Txn.Workload.run ~record_obs cfg)
    in
    Printf.printf
      "txn/%s on %s, %d objects x %d accounts, %d threads, %d transactions, \
       %d%% transfers, seed %d%s\n"
      rep machine objects accounts threads ops transfer seed
      (if broken then " (BROKEN commit protocol)" else "");
    print_service m ~unit:"Mtxn/s" ignore;
    Printf.printf "%s\n" (Format.asprintf "%a" Txn.Workload.pp_result r);
    let trace_sections =
      trace_analysis ~timeline_file:timeline r.Txn.Workload.res_trace
    in
    write_report report (fun () ->
        Harness.Report.make ~subcommand:"txn" ~seed:(Some seed)
          ~params:
            [
              ("rep", J.Str rep);
              ("objects", J.Int objects);
              ("accounts", J.Int accounts);
              ("threads", J.Int threads);
              ("ops", J.Int ops);
              ("transfer_pct", J.Int transfer);
              ("machine", J.Str machine);
              ("broken", J.Bool broken);
            ]
          ~sections:(Txn.Workload.report_section cfg r :: trace_sections)
          [ ("txn/" ^ rep, m) ]);
    exit_unless r.Txn.Workload.res_oracle.Txn.Workload.ok m
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:
         "Multi-key optimistic transactions over the registry structures: \
          contended bank transfers with read-set validation and sorted \
          lock-set commit, abort-free snapshot audits, and a strict \
          serializability oracle over the committed history.")
    Term.(
      const run $ rep $ objects $ accounts $ threads $ ops $ transfer
      $ machine_arg $ seed $ broken $ trials $ report_arg $ tracing_arg)

(* ---------------- hostperf ---------------- *)

let hostperf_cmd =
  let out_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the results as line-oriented JSON to $(docv) (the format \
             of the committed BENCH_sim.json baseline).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a committed BENCH_sim.json and exit non-zero if \
             any workload's simulated-ops/host-sec or accesses/host-sec \
             falls more than the tolerance below it, or its words/op grows \
             more than 2% above it (checked only against a baseline from \
             the same OCaml version).")
  in
  let tolerance =
    Arg.(
      value & opt float 20.
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed regression vs the baseline, percent (default 20).")
  in
  let repeats =
    count "repeats" ~default:3
      ~doc:
        "Run each workload $(docv) times and keep the best host time (the \
         simulated side is identical every repeat)."
  in
  let run out_file baseline tolerance repeats report =
    let results = Host_bench.run ~repeats () in
    Format.printf "%a@?" Host_bench.pp_table results;
    (match out_file with
    | None -> ()
    | Some path ->
        Host_bench.write_json path results;
        Printf.eprintf "[host] wrote %s\n%!" path);
    (* Only the simulated side of hostperf is deterministic; host seconds
       stay out of the report (they live in --out / stderr). *)
    write_report report (fun () ->
        let runs =
          List.map
            (fun (r : Host_bench.result) ->
              J.Obj
                [
                  ("id", J.Str r.Host_bench.r_name);
                  ("name", J.Str r.Host_bench.r_name);
                  ("threads", J.Int r.Host_bench.r_threads);
                  ( "metrics",
                    J.Obj
                      [
                        ("ops", J.Int r.Host_bench.r_ops);
                        ("accesses", J.Int r.Host_bench.r_accesses);
                        ("events", J.Int r.Host_bench.r_events);
                      ] );
                ])
            results
        in
        J.make ~subcommand:"hostperf" ~seed:None
          ~params:[ ("repeats", J.Int repeats) ]
          ~runs ~sections:[]);
    match baseline with
    | None -> ()
    | Some path ->
        let content =
          try In_channel.with_open_text path In_channel.input_all
          with Sys_error msg -> die "cannot read baseline: %s" msg
        in
        if Host_bench.parse_baseline content = [] then
          die "baseline %s contains no results" path;
        let regressions, skipped =
          Host_bench.check_baseline ~baseline:content ~tolerance_pct:tolerance
            results
        in
        if skipped <> [] then
          Printf.printf
            "hostperf: words gate skipped for %s (baseline from another OCaml \
             than %s)\n"
            (String.concat ", " skipped) Sys.ocaml_version;
        if regressions = [] then
          Printf.printf
            "hostperf: within %.0f%% (rates) and %.0f%% (words/op) of baseline \
             %s\n"
            tolerance Host_bench.words_tolerance_pct path
        else begin
          List.iter
            (Format.eprintf "hostperf REGRESSION: %a@." Host_bench.pp_regression)
            regressions;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "hostperf"
       ~doc:
         "Measure engine throughput in simulated-ops per host-second, and \
          words allocated per op, over fixed representative workloads, \
          optionally gating against a committed baseline.")
    Term.(const run $ out_file $ baseline $ tolerance $ repeats $ report_arg)

(* ---------------- diff ---------------- *)

let diff_cmd =
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A.json" ~doc:"Baseline report file.")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B.json" ~doc:"Report file to compare against A.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"How many top regressions to rank (default 10).")
  in
  let run file_a file_b top =
    let load label path =
      match J.read_file path with
      | Ok j -> (
          match J.validate j with
          | Ok () -> j
          | Error e ->
              die "report %s (%s) failed validation: %s" label path e)
      | Error e -> die "cannot parse %s (%s): %s" label path e
    in
    let a = load "A" file_a and b = load "B" file_b in
    match J.diff ~top a b with
    | Ok text -> print_string text
    | Error e -> die "diff failed: %s" e
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two run reports (seed-vs-seed, structure-vs-structure, \
          commit-vs-commit): deterministic per-metric deltas, top-K \
          regressions, and hot-line stall attribution when both reports \
          carry profiles.")
    Term.(const run $ file_a $ file_b $ top)

(* ---------------- probes ---------------- *)

let probes_cmd =
  let run () =
    (* Probe handles are created lazily by the subsystems that own them
       (a process that never runs a transaction registers no txn.*
       counters), so touch each service once: building a KV service and a
       transaction manager registers their probes without running a
       simulation. Module-level handles (scheduler, runner, structure
       internals) registered when their modules loaded. *)
    ignore (Kv.create Kv.default_config : Kv.t);
    ignore (Txn.Workload.T.create ());
    let rows = Sim.Sim_rt.Probe.all () in
    let bad =
      List.filter_map
        (fun (name, _) ->
          match J.split_counter name with
          | Some _ -> None
          | None -> Some name)
        rows
    in
    List.iter (fun (name, kind) -> Printf.printf "%-9s  %s\n" kind name) rows;
    if bad <> [] then begin
      Printf.eprintf
        "probes: %d name(s) violate the <rep>.<metric> convention: %s\n"
        (List.length bad) (String.concat ", " bad);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "probes"
       ~doc:
         "List every registered probe as '<kind>  <name>' — the same \
          registry the report probe audit iterates — and fail if any name \
          escapes the <rep>.<metric> convention.")
    Term.(const run $ const ())

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    let p label names = Printf.printf "%-11s %s\n" label (String.concat ", " names) in
    List.iter
      (fun (family, structures) ->
        p (family ^ "s:")
          (List.map (fun (module S : Harness.Registry.SET_OPS) -> S.name) structures))
      families;
    p "queues:"
      (List.map
         (fun (module Q : Harness.Registry.QUEUE_OPS) -> Q.name)
         Harness.Registry.Sim_backend.queues);
    p "stacks:"
      (List.map
         (fun (module S : Harness.Registry.STACK_OPS) -> S.name)
         Harness.Registry.Sim_backend.stacks);
    Printf.printf "experiments: %s\n"
      (String.concat ", " Figures.Experiments.all_ids)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available structures and experiments.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "optik_bench" ~version:"1.0"
      ~doc:"OPTIK (PPoPP'16) reproduction: benchmarks and ad-hoc runs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd;
            run_cmd;
            soak_cmd;
            chaos_cmd;
            fleet_cmd;
            kv_cmd;
            txn_cmd;
            hostperf_cmd;
            diff_cmd;
            probes_cmd;
            list_cmd;
          ]))
