(** Workload runners: execute the paper's microbenchmark loop (§5) against
    a data structure, either on the simulated multicore (figures) or on
    real domains (stress testing).

    Methodology reproduced from the paper:
    - every iteration picks a key uniformly (or zipf, a = 0.9, largest
      keys most popular) from a range {e twice} the initial size;
    - insert and delete percentages are equal, so the size stays near the
      initial size and roughly half the updates fail;
    - the {e effective} update rate (updates that modified the structure)
      is what gets reported;
    - all threads use the same backoff policy (inside the structures) and
      wait a short moment between iterations;
    - per-thread latency buffers of 16K samples, summarized as boxplot
      percentiles. *)

type dist = Uniform | Zipf of float

type set_workload = {
  init_size : int;
  range : int;
  update_pct : int;  (** attempted updates, percent: split evenly ins/del *)
  dist : dist;
  capacity : int option;  (** map slots / hash-table buckets *)
}

let uniform_workload ?capacity ~init_size ~update_pct () =
  { init_size; range = 2 * init_size; update_pct; dist = Uniform; capacity }

let skewed_workload ?capacity ~init_size ~update_pct () =
  { init_size; range = 2 * init_size; update_pct; dist = Zipf 0.9; capacity }

(* Latency classes, as in Figure 7. *)
let n_classes = 6

let class_names =
  [| "srch-suc"; "srch-fal"; "insr-suc"; "insr-fal"; "delt-suc"; "delt-fal" |]

(* Queues and stacks: enqueue (push), dequeue (pop) non-empty and empty. *)
let queue_class_names = [| "enqueue"; "dequeue-suc"; "dequeue-fal" |]

(** How the measured run ended. [Aborted] carries the scheduler's stall
    report — verdict, per-thread progress, dead lock holders, partial
    stats — so fault-injection and watchdog experiments get structured
    results instead of escaped exceptions. *)
type outcome = Complete | Aborted of Sim.Sched.report

type measurement = {
  name : string;
  topo_name : string;  (** topology the run simulated, or ["native"] *)
  seed : int;
  threads : int;
  mops : float;
  ops : int;
  wall_s : float;
  eff_update_pct : float;
  reads : int;
  writes : int;
  cas : int;
  cas_failed : int;
  faa : int;
  events : int;  (** scheduler (slow-path) events; 0 for native runs *)
  host_s : float;
      (** host wall-clock seconds the measured window took to simulate
          (or, for native runs, to execute — there it equals [wall_s]);
          simulated-ops/host-second is [ops /. host_s] *)
  lat : Pstats.summary array;  (** indexed like {!lat_classes} *)
  lat_classes : string array;
      (** names of the latency classes [lat] is indexed by *)
  counters : (string * int) list;
  final_size : int;
  valid : bool;
  outcome : outcome;
  obs : Obs.Profile.summary option;
      (** present when the run was made with [~record_obs:true]:
          the journal summary, for trace export and hot-line reports *)
}

let aborted m = match m.outcome with Aborted _ -> true | Complete -> false

(* --------------------------------------------------------------- *)
(* Building a measurement                                           *)

let no_stats : Sim.Sched.stats =
  {
    wall_cycles = 0;
    ops = 0;
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failed = 0;
    faa = 0;
    events = 0;
  }

(* Runs timed on the host report on a 1 GHz pseudo-machine, so one
   cycle is one nanosecond of host time. *)
let host_machine = Sim.Topology.uniform ~n:1 ()
let host_clock name = { host_machine with Sim.Topology.name }

let host_stats ~ops seconds =
  {
    no_stats with
    wall_cycles = Float.to_int (Float.round (seconds *. 1e9));
    ops;
  }

(* Every measurement is built here: modelled wall time, throughput, the
   per-class latency fold and the effective-update rate are computed one
   way. [lat] holds one collector per thread per class of [lat_classes]. *)
let measurement ~name ~topology ~seed ~threads ?(effective = 0)
    ?(host_s = 0.) ?trace ~counters ~final_size ~valid ~lat_classes lat
    ((stats : Sim.Sched.stats), outcome) =
  let ops = stats.ops in
  {
    name;
    topo_name = topology.Sim.Topology.name;
    seed;
    threads;
    mops = Sim.Sched.mops topology stats;
    ops;
    wall_s =
      float_of_int stats.wall_cycles /. (topology.Sim.Topology.ghz *. 1e9);
    eff_update_pct =
      (if ops = 0 then 0.
       else 100. *. float_of_int effective /. float_of_int ops);
    reads = stats.reads;
    writes = stats.writes;
    cas = stats.cas;
    cas_failed = stats.cas_failed;
    faa = stats.faa;
    events = stats.events;
    host_s;
    lat =
      Array.mapi
        (fun c _ ->
          Pstats.summarize (Array.to_list (Array.map (fun l -> l.(c)) lat)))
        lat_classes;
    lat_classes;
    counters;
    final_size;
    valid;
    outcome;
    obs = Option.map Obs.Profile.summarize trace;
  }

(* The measured window's bracket: host-times [go] and, when [record_obs],
   records the observability journal around it. The record comes back
   raw, for attribution and the trace exporters. The recorder is stopped
   on escape too, so a crashed run does not leave it armed. *)
let measured ?(record_obs = false) go =
  let host0 = Unix.gettimeofday () in
  if record_obs then Obs.Journal.start ();
  let stop () = if record_obs then Some (Obs.Journal.stop ()) else None in
  match go () with
  | x ->
      let trace = stop () in
      (x, Float.max 1e-9 (Unix.gettimeofday () -. host0), trace)
  | exception e ->
      ignore (stop ());
      raise e

(* --------------------------------------------------------------- *)
(* Workloads, as both loops drive them                              *)

(* [l_step rng] performs one operation and returns its latency class, an
   index into [l_classes]; [l_updates] are the classes whose operations
   count as effective updates. *)
type loop = {
  l_name : string;
  l_classes : string array;
  l_updates : int list;
  l_step : Rng.t -> int;
  l_size : unit -> int;
  l_valid : unit -> bool;
}

let sampler w =
  match w.dist with
  | Uniform -> fun rng -> 1 + Rng.below rng w.range
  | Zipf a ->
      let z = Zipf.create ~range:w.range ~alpha:a in
      fun rng -> Zipf.sample z rng

(* Operations of all threads in the classes that count as updates, from
   per-thread per-class tallies read with [count]. *)
let updates l count per_thread =
  List.fold_left
    (fun n u -> Array.fold_left (fun n t -> n + count t.(u)) n per_thread)
    0 l.l_updates

(* Create the structure and fill it to [init_size] distinct keys, drawing
   from the workload distribution (so skewed runs start with the popular
   keys present). Runs outside any simulation: zero simulated cost. *)
let set_loop (module S : Registry.SET_OPS) w ~seed =
  let t =
    match w.capacity with
    | Some capacity -> S.create ~capacity ()
    | None -> S.create ()
  in
  let rng = Rng.create (seed + 7919) in
  let sample = sampler w in
  let n = ref 0 in
  let attempts = ref 0 in
  while !n < w.init_size && !attempts < w.init_size * 1000 do
    incr attempts;
    let k = sample rng in
    if S.insert t k k then incr n
  done;
  if !n < w.init_size then
    failwith
      (Printf.sprintf "prefill: only %d/%d keys inserted (capacity?)" !n
         w.init_size);
  let upd_half = w.update_pct / 2 in
  let upd_total = w.update_pct in
  {
    l_name = S.name;
    l_classes = class_names;
    l_updates = [ 2; 4 ];
    l_step =
      (fun rng ->
        let key = sample rng in
        let p = Rng.below rng 100 in
        if p < upd_half then if S.insert t key key then 2 else 3
        else if p < upd_total then
          match S.delete t key with Some _ -> 4 | None -> 5
        else match S.search t key with Some _ -> 0 | None -> 1);
    l_size = (fun () -> S.size t);
    l_valid = (fun () -> S.validate t);
  }

(* Queues and stacks: [add_pct] percent of operations add a random value,
   the rest remove one. Every operation counts as an update. *)
let pool_loop ~name ~init ~seed ~add_pct ~add ~remove ~size =
  let rng0 = Rng.create (seed + 13) in
  for _ = 1 to init do
    add (Rng.below rng0 1_000_000)
  done;
  {
    l_name = name;
    l_classes = queue_class_names;
    l_updates = [ 0; 1; 2 ];
    l_step =
      (fun rng ->
        if Rng.below rng 100 < add_pct then (
          add (Rng.below rng 1_000_000);
          0)
        else match remove () with Some _ -> 1 | None -> 2);
    l_size = size;
    l_valid = (fun () -> true);
  }

(* --------------------------------------------------------------- *)
(* Simulator runner                                                 *)

(* Per-operation latency in cycles, as a probe histogram: shows up in
   --trace exports as samples and in counter dumps via [buckets]. *)
let op_cycles = Sim.Sim_rt.Probe.histogram "runner.op-cycles"

(* When [Timeout] predates the structured reports (or the abort happened
   before a report was built), synthesize an empty one so [Aborted] always
   carries something printable. *)
let synthetic_report reason : Sim.Sched.report =
  {
    Sim.Sched.r_verdict = Sim.Sched.Progress;
    r_reason = reason;
    r_stats = no_stats;
    r_threads = [];
    r_dead_holders = [];
    r_waiters = [];
    r_hot_lines = [];
  }

(* Run a simulation to a structured ([stats], [outcome]) pair: watchdog
   verdicts and budget exhaustion become [Aborted] with partial stats,
   never an escaped exception. [faults] installs a fault plan for the
   duration of the run. *)
let run_guarded ?faults ?watchdog ?max_events ?quantum ?read_slack
    ?max_inline_ops ~topology ~nthreads ~ops_target body :
    Sim.Sched.stats * outcome =
  let go () =
    Sim.Sched.run ?watchdog ?max_events ?quantum ?read_slack ?max_inline_ops
      ~topology ~nthreads ~ops_target body
  in
  let go =
    match faults with
    | None -> go
    | Some plan -> fun () -> Sim.Fault.with_plan plan go
  in
  match go () with
  | st -> (st, Complete)
  | exception Sim.Sched.Stalled r -> (r.Sim.Sched.r_stats, Aborted r)
  | exception Sim.Sched.Timeout msg ->
      let r =
        match Sim.Sched.last_abort_report () with
        | Some r -> r
        | None -> synthetic_report msg
      in
      (r.Sim.Sched.r_stats, Aborted r)

(* The one simulated workload loop: each thread draws and runs an
   operation, records its latency in its per-class buffer, and waits a
   short moment (avoids long runs, §5). *)
let run_sim ~topology ~nthreads ~ops ~seed ?faults ?watchdog ?max_events
    ~record_obs l =
  (* reset after prefill so counters reflect only the measured window *)
  Sim.Sim_rt.Probe.reset_all ();
  let lat =
    Array.init nthreads (fun _ ->
        Array.map (fun _ -> Pstats.create ()) l.l_classes)
  in
  let run, host_s, trace =
    measured ~record_obs (fun () ->
        run_guarded ?faults ?watchdog ?max_events ~topology ~nthreads
          ~ops_target:ops (fun tid ->
            let rng = Rng.create ((seed * 65_599) + tid) in
            while not (Sim.Sched.stop_requested ()) do
              let t0 = Sim.Sched.now () in
              let cls = l.l_step rng in
              let t1 = Sim.Sched.now () in
              Pstats.record lat.(tid).(cls) (t1 - t0);
              Sim.Sim_rt.Probe.observe op_cycles (t1 - t0);
              Sim.Sched.tick ();
              Sim.Sched.work (64 + Rng.below rng 64)
            done))
  in
  let valid = l.l_valid () in
  let final_size = l.l_size () in
  measurement ~name:l.l_name ~topology ~seed ~threads:nthreads
    ~effective:(updates l Pstats.count lat)
    ~host_s ?trace ~counters:(Sim.Sim_rt.Probe.dump ()) ~final_size ~valid
    ~lat_classes:l.l_classes lat run

let run_set_sim ~topology ~nthreads ~ops ?(seed = 42) ?faults ?watchdog
    ?max_events ?(record_obs = false) set w =
  run_sim ~topology ~nthreads ~ops ~seed ?faults ?watchdog ?max_events
    ~record_obs (set_loop set w ~seed)

(* Queue workloads (Figure 12): enqueue percentage picks between
   decreasing (40), stable (50) and increasing (60) size. *)

let queue_init_size = 65_536

let run_queue_sim ~topology ~nthreads ~ops ?(seed = 42) ?(init = queue_init_size)
    ?faults ?watchdog ?max_events ?(record_obs = false) ~enqueue_pct
    (module Qu : Registry.QUEUE_OPS) =
  let q = Qu.create () in
  run_sim ~topology ~nthreads ~ops ~seed ?faults ?watchdog ?max_events
    ~record_obs
    (pool_loop ~name:Qu.name ~init ~seed ~add_pct:enqueue_pct
       ~add:(Qu.enqueue q)
       ~remove:(fun () -> Qu.dequeue q)
       ~size:(fun () -> Qu.size q))

(* Stack workloads (§5.5): push percentage plays the role enqueue_pct
   plays for queues. *)
let run_stack_sim ~topology ~nthreads ~ops ?(seed = 42) ?(init = 4096)
    ?faults ?watchdog ?max_events ?(record_obs = false) ~push_pct
    (module St : Registry.STACK_OPS) =
  let st = St.create () in
  run_sim ~topology ~nthreads ~ops ~seed ?faults ?watchdog ?max_events
    ~record_obs
    (pool_loop ~name:St.name ~init ~seed ~add_pct:push_pct ~add:(St.push st)
       ~remove:(fun () -> St.pop st)
       ~size:(fun () -> St.size st))

(* --------------------------------------------------------------- *)
(* Native runner (real domains)                                     *)

(* A sense-reversing barrier so all domains enter the measured section
   together. *)
let barrier n =
  let count = Atomic.make n in
  let sense = Atomic.make 0 in
  fun () ->
    let s = Atomic.get sense in
    if Atomic.fetch_and_add count (-1) = 1 then (
      Atomic.set count n;
      Atomic.incr sense)
    else
      while Atomic.get sense = s do
        Domain.cpu_relax ()
      done

(* The one native loop: [ops_per_thread] operations per domain between
   two barriers, timed by domain 0. Latencies are not recorded; each
   domain only tallies its operations per class. *)
let run_native ~nthreads ~ops_per_thread ~seed l =
  let counts =
    Array.init nthreads (fun _ -> Array.make (Array.length l.l_classes) 0)
  in
  Rt.Native_rt.set_nthreads nthreads;
  let bar = barrier nthreads in
  let t_start = ref 0. in
  let t_stop = ref 0. in
  let body tid () =
    Rt.Native_rt.set_tid tid;
    let rng = Rng.create ((seed * 65_599) + tid) in
    let counts = counts.(tid) in
    bar ();
    if tid = 0 then t_start := Unix.gettimeofday ();
    for _ = 1 to ops_per_thread do
      let cls = l.l_step rng in
      counts.(cls) <- counts.(cls) + 1
    done;
    bar ();
    if tid = 0 then t_stop := Unix.gettimeofday ()
  in
  let domains =
    List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1)))
  in
  body 0 ();
  List.iter Domain.join domains;
  Rt.Native_rt.set_nthreads 1;
  let stats =
    host_stats ~ops:(nthreads * ops_per_thread)
      (Float.max 1e-9 (!t_stop -. !t_start))
  in
  let valid = l.l_valid () in
  let final_size = l.l_size () in
  let m =
    measurement ~name:l.l_name ~topology:(host_clock "native") ~seed
      ~threads:nthreads ~effective:(updates l Fun.id counts) ~counters:[]
      ~final_size ~valid
      ~lat_classes:l.l_classes [||] (stats, Complete)
  in
  (* a native run's host time is its wall time *)
  { m with host_s = m.wall_s }

let run_set_native ~nthreads ~ops_per_thread ?(seed = 42) set w =
  run_native ~nthreads ~ops_per_thread ~seed (set_loop set w ~seed)
