(** Workload runners: execute the paper's microbenchmark loop (§5)
    against a data structure, either on the simulated multicore (the
    figures) or on real domains (stress testing).

    Methodology reproduced from the paper: keys are drawn uniformly (or
    zipf, a = 0.9) from a range twice the initial size; insert and delete
    percentages are equal so the size stays put and roughly half the
    updates fail; the {e effective} update rate is what gets reported;
    per-thread latency buffers are summarized as boxplot percentiles. *)

(** {1 Workloads} *)

type dist = Uniform | Zipf of float

type set_workload = {
  init_size : int;
  range : int;
  update_pct : int;  (** attempted updates, percent: split evenly ins/del *)
  dist : dist;
  capacity : int option;  (** map slots / hash-table buckets *)
}

val uniform_workload :
  ?capacity:int -> init_size:int -> update_pct:int -> unit -> set_workload

val skewed_workload :
  ?capacity:int -> init_size:int -> update_pct:int -> unit -> set_workload
(** Zipfian keys, a = 0.9: the largest keys are the most popular. *)

(** {1 Measurements} *)

val n_classes : int
(** Number of latency classes for set workloads (Figure 7). *)

val class_names : string array
(** Names of the latency classes, indexed like {!measurement.lat}. *)

val queue_class_names : string array
(** Latency class names for queue/stack workloads: enqueue (push),
    dequeue (pop) non-empty, dequeue (pop) empty. *)

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
          (for native runs it equals [wall_s]); simulated-ops/host-second
          is [ops /. host_s] — the engine-throughput figure tracked by
          [optik_bench hostperf] *)
  lat : Pstats.summary array;  (** indexed like {!lat_classes} *)
  lat_classes : string array;
      (** names of the latency classes [lat] is indexed by
          ({!class_names} or {!queue_class_names}) *)
  counters : (string * int) list;
      (** non-zero probe counters, sorted by name (simulator runs only) *)
  final_size : int;
  valid : bool;
  outcome : outcome;
  obs : Obs.Profile.summary option;
      (** present when the run was made with [~record_obs:true]: the
          observability journal summary, for trace export and hot-line
          reports *)
}

val aborted : measurement -> bool

val measurement :
  name:string ->
  topology:Sim.Topology.t ->
  seed:int ->
  threads:int ->
  ?effective:int ->
  ?host_s:float ->
  ?trace:Obs.Journal.record ->
  counters:(string * int) list ->
  final_size:int ->
  valid:bool ->
  lat_classes:string array ->
  Pstats.t array array ->
  Sim.Sched.stats * outcome ->
  measurement
(** The one place a measurement is built, from a run's stats and outcome
    on [topology]: [ops] are the ticks the stats counted, [wall_s] their
    cycles at the topology's clock, [mops] the one over the other; [lat]
    summarizes the per-thread collectors ([lat.(tid).(c)] for each class
    [c] of [lat_classes], so it has one summary per class), and
    [eff_update_pct] is [effective] over [ops] ([0] when [ops = 0]).
    [effective] defaults to [0] and [host_s] to [0.]; [obs] is the
    summary of [trace]. A caller whose run differs overrides fields with
    [{ m with ... }]. *)

val measured :
  ?record_obs:bool -> (unit -> 'a) -> 'a * float * Obs.Journal.record option
(** The measured window's bracket: [measured ~record_obs go] runs [go],
    returning its result, the host seconds it took and, when
    [record_obs], the raw observability journal recorded around it
    (summarized by {!measurement}, kept whole for attribution). *)

val host_clock : string -> Sim.Topology.t
(** A 1 GHz pseudo-machine with the given name, for runs timed on the
    host rather than simulated: one cycle is one nanosecond. *)

val host_stats : ops:int -> float -> Sim.Sched.stats
(** [host_stats ~ops seconds]: [ops] operations in [seconds] of host
    time, as cycles of {!host_clock}, with no simulated accesses. *)

val run_guarded :
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?quantum:int ->
  ?read_slack:int ->
  ?max_inline_ops:int ->
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops_target:int ->
  (int -> unit) ->
  Sim.Sched.stats * outcome
(** A bare guarded simulation run: execute [body tid] under an optional
    fault plan, turning watchdog verdicts and budget exhaustion into
    [Aborted] with partial stats — never an escaped exception. The
    building block under the simulated runner; the chaos engine, the KV
    service and the transaction workload use it directly with their own
    workloads and oracles. *)

(** {1 Simulator runners}

    One workload loop under three wrappers: each thread draws an
    operation, runs it, records its latency in a per-class buffer, and
    waits a short moment. Deterministic: identical arguments (including [seed]) give identical
    measurements. [record_obs] additionally records the observability
    journal — probe events, checkpoint stream, per-line contention —
    into {!measurement.obs}; recording never perturbs the virtual clock,
    so it does not change the measured figures. *)

val run_set_sim :
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops:int ->
  ?seed:int ->
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?record_obs:bool ->
  (module Registry.SET_OPS) ->
  set_workload ->
  measurement

val run_queue_sim :
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops:int ->
  ?seed:int ->
  ?init:int ->
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?record_obs:bool ->
  enqueue_pct:int ->
  (module Registry.QUEUE_OPS) ->
  measurement
(** Queue workloads (Figure 12): [enqueue_pct] picks between decreasing
    (40), stable (50) and increasing (60) queue size. *)

val run_stack_sim :
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops:int ->
  ?seed:int ->
  ?init:int ->
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?record_obs:bool ->
  push_pct:int ->
  (module Registry.STACK_OPS) ->
  measurement
(** Stack workloads (§5.5): [push_pct] plays the role [enqueue_pct]
    plays for queues. *)

(** {1 Native runner (real domains)}

    Wall-clock timed, so not deterministic; coherence statistics and
    latency classes are unavailable ([0] / empty). The measurement's
    topology is [host_clock "native"]. *)

val run_set_native :
  nthreads:int ->
  ops_per_thread:int ->
  ?seed:int ->
  (module Registry.SET_OPS) ->
  set_workload ->
  measurement
