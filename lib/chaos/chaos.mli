(** Chaos engine: randomized fault/schedule fuzzing over the registry
    structures, the KV service and the transaction manager, with
    crash-aware oracles and counterexample shrinking.

    Determinism: a trial's outcome is a pure function of its one-line
    string form — fuzzing twice with the same seed produces
    byte-identical output, and [--replay] of an emitted repro string
    reproduces the identical verdict. On failure, {!shrink} greedily
    minimizes the trial, re-running deterministically at each step. *)

(** {1 Trial families}

    Every kind of trial — registry structures, the KV service, the
    transaction manager — is one {!family}: how to print, parse, draw,
    shrink and check a trial. {!shrink}, {!fuzz}, {!replay} and {!fleet}
    are written once over it. *)

type failure = { f_oracle : string; f_detail : string }

type verdict = {
  v_failures : failure list;  (** empty = every oracle passed *)
  v_line : string;  (** the family's one-line run summary, for replay *)
}

type 'a family = {
  name : string;  (** summary-line name: [chaos], [chaos-kv], [chaos-txn] *)
  command : string;  (** the [optik_bench] subcommand that replays one *)
  budget : int;  (** shrink re-run budget *)
  to_string : 'a -> string;  (** one-line replayable form *)
  of_string : string -> 'a;
      (** inverse of [to_string]; raises [Invalid_argument] on parse
          errors, unknown names and out-of-range values *)
  gen : Harness.Rng.t -> 'a;  (** draw a random trial *)
  candidates : 'a -> 'a list;  (** reductions, most aggressive first *)
  check : 'a -> verdict;  (** run it and apply the oracles *)
}

(** A family with its trial type hidden, so families of different kinds
    fit in one list (the fleet subcommand's [--kind] lookup). *)
type any_family = Family : 'a family -> any_family

val shrink : 'a family -> 'a -> 'a
(** Greedily minimize a failing trial: keep the first candidate that
    still fails some oracle and restart from it, until a fixpoint or
    [budget] re-runs. Returns the trial unchanged if it does not fail. *)

val fuzz :
  ?offset:int ->
  ?summary:bool ->
  'a family ->
  runs:int ->
  seed:int ->
  Format.formatter ->
  int
(** Run [runs] independent random trials (trial [i] is drawn from seed
    [seed + i * 1_000_003]), shrinking and reporting each failure with a
    one-line repro ([optik_bench COMMAND --replay '...']). Returns the
    number of failing trials. Output is byte-deterministic for a given
    (family, [runs], [seed]).

    [offset] (default 0) starts at trial index [offset] instead of 0,
    printing the same absolute indices, so batches concatenate to the
    serial output. [summary] (default true) prints the trailing
    ["NAME: F/T trials failed"] line. *)

val replay : 'a family -> string -> Format.formatter -> int
(** Parse a repro string, run it, report the verdict; returns the number
    of oracle failures (0 = passes). *)

val fleet :
  ?words:float ref ->
  'a family ->
  jobs:int ->
  trials:int ->
  batch:int ->
  seed:int ->
  Format.formatter ->
  int
(** {!fuzz} farmed out over [Harness.Fleet]: one task per [batch]
    consecutive trials, on [jobs] worker domains, each task starting from
    {!fresh_world}. Prints exactly what [fuzz ~runs:trials] prints,
    whatever the jobs/batch split. [words] receives the minor words the
    tasks allocated on their worker domains (see [Harness.Fleet.map]). *)

(** {1 Structure trials}

    Each {!trial} bundles everything one deterministic run needs: a
    structure, a machine topology, a small workload, scheduler
    perturbation knobs (quantum, read slack, noise amplitude) and a fault
    plan, written [name@topo tN oN kN qN rN nN wN fPLAN] with [PLAN] in
    {!Sim.Fault.to_string} syntax. {!run_trial} executes it under the
    simulator and applies three oracles:

    - {e liveness by family}: lock-free representatives must end
      [Progress]; blocking ones may end [Starved] only behind a dead lock
      holder;
    - {e crash-aware linearizability}: the recorded history, with crashed
      threads' in-flight operations as pending (include-or-exclude), must
      linearize against the sequential spec;
    - {e invariant sweeps}: size accounting against the history, the
      structure's own [validate], and QSBR's
      [retired = freed + pending]. *)

(** Liveness family of a structure (§2 of the paper): what a fault plan
    is allowed to do to it. *)
type kind = Lock_free | Blocking

type target =
  | Set of (module Harness.Registry.SET_OPS)
  | Queue of (module Harness.Registry.QUEUE_OPS)
  | Stack of (module Harness.Registry.STACK_OPS)

type entry = { e_name : string; e_kind : kind; e_target : target }

val default_entries : entry list
(** One representative per family and figure: lists, hash tables, skip
    lists, array map, BST, queues, stacks — each tagged lock-free or
    blocking. *)

val quick_entries : entry list
(** {!default_entries} minus the slow representatives (skip lists, BST);
    the CI smoke set. *)

val find_entry : entry list -> string -> entry
(** Raises [Invalid_argument] for an unknown name. *)

type trial = {
  t_entry : entry;
  t_topo : string;  (** topology name: u2, u4, xeon, opteron *)
  t_threads : int;
  t_ops : int;  (** operations per thread *)
  t_keys : int;  (** key range for set workloads; prefill for queues *)
  t_quantum : int;
  t_read_slack : int;
  t_noise_bits : int;
  t_wseed : int;  (** workload seed *)
  t_plan : Sim.Fault.plan;
}

type outcome = {
  o_completed : bool;  (** the run finished (vs watchdog abort) *)
  o_crashed : int list;  (** threads killed by the fault plan *)
  o_failures : failure list;  (** empty = every oracle passed *)
}

val run_trial : trial -> outcome
(** Execute one trial. Deterministic; never raises for well-formed
    trials. *)

val structure_family : entry list -> trial family
(** Trials over [entries] ([of_string] resolves names against them):
    shrinking drops fault specs, halves stall/storm durations and hit
    counts, and reduces threads/ops/keys, within 300 re-runs. *)

(** {1 KV service trials}

    Randomized trials over the sharded KV service ({!Kv}): sequences of
    shard crashes per pair (the resync path re-arms the f = 1 budget,
    so multi-crash schedules are legal), deliberate crash-during-resync
    schedules ([resynccrash]), client crashes (op-boundary only),
    stalls and storms. The oracles are the service's own: the run
    terminates, the stores stay valid, no acknowledged write is lost or
    duplicated while its pair is under warranty, and a pair that took a
    crash mid-resync ends Voided (anything else is a forged re-arm). *)

type kv_trial = {
  kv_rep : string;  (** service representation ({!Kv.rep_names}) *)
  kv_topo : string;
  kv_shards : int;
  kv_threads : int;
  kv_ops : int;
  kv_keys : int;
  kv_read : int;
  kv_scan : int;
  kv_wseed : int;
  kv_degraded : int;  (** degraded window before a wiped store resyncs *)
  kv_batch : int;  (** resync copy batch size *)
  kv_plan : Sim.Fault.plan;
}

val kv_family : kv_trial family
(** [kv/REP@topo sN tN oN kN RN CN wN DN BN fPLAN]; shrinks within 60
    re-runs. *)

(** {1 Transaction trials}

    Randomized trials over the multi-key optimistic transaction manager
    ({!Txn.Workload}): contended bank transfers plus snapshot audits over
    several registry structures. The oracle is strict serializability —
    every committed transfer replays in commit-ticket order against a
    sequential model, every snapshot audit matches some model state
    inside its clock window, and account balances are conserved. *)

type txn_trial = {
  x_rep : string;  (** structure representation ({!Txn.Workload.rep_names}) *)
  x_topo : string;
  x_objects : int;
  x_accounts : int;
  x_threads : int;
  x_ops : int;
  x_transfer : int;  (** transfer percentage; the rest are audits *)
  x_wseed : int;
  x_broken : bool;  (** negative control: skip commit-time validation *)
}

val txn_family : txn_trial family
(** [txn/REP@topo bN aN tN oN XN wN [!]] — trailing [!] marks the
    broken-commit negative control; shrinks within 60 re-runs. *)

val run_txn_trial :
  txn_trial -> Harness.Runner.measurement * Txn.Workload.result * failure list

(** {1 World reset} *)

val fresh_world : unit -> unit
(** Restore the calling domain's entire simulator world to
    process-pristine state: scheduler counters/tables/heap
    ([Sim.Sched.reset_world]), the fault engine, the observability
    journal, probe cells, and every id source (packing groups, lock
    handles, transaction oids, skip-list level rngs). Structures created
    before the reset are invalidated. The fleet runner calls this before
    every task so a trial's output does not depend on which domain ran
    it or what ran there before. *)
