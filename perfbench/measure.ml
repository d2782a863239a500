(** Measurement primitives shared by every workload: a monotonic clock,
    a process CPU clock, allocation counters, medians, pooled latency percentiles, and the
    metric and result types the report prints. *)

module Pstats = Harness.Pstats

(** Host seconds on the monotonic clock (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** CPU seconds of this process so far (user + system, every thread;
    [CLOCK_PROCESS_CPUTIME_ID], nanosecond resolution). The phases of a
    single-threaded simulator run are timed on this clock: time the
    process spends descheduled, as when other load shares the host,
    does not count. The speed at which it runs still varies with that
    load; {!Calib} corrects the end-to-end figures for it. *)
external cpu : unit -> (float[@unboxed]) = "perfbench_cpu_now_byte" "perfbench_cpu_now"
[@@noalloc]

(** Words allocated by the process so far: minor allocations plus
    direct major allocations. [Gc.quick_stat] folds in the counts of
    domains that have been joined, so a window that spawns and joins
    domains is covered too. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(** Peak major heap of this process so far, in MB (10^6 bytes). *)
let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let median = function
  | [] -> invalid_arg "Measure.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(** Latency percentiles over several collectors, with [failed] requests
    ranked above every served one: a timed-out or shed request misses
    any latency limit, so it can only push a percentile up. *)
let pooled ?(failed = 0) (cols : Pstats.t list) =
  let over = Pstats.create () in
  for _ = 1 to failed do
    Pstats.record over max_int
  done;
  Pstats.summarize (over :: cols)

(** One untraced execution of a workload, split into the three phases
    a user pays for: set-up, the measured window, and the post-run
    check. Phases are timed in process CPU seconds ({!cpu}). *)
type phases = {
  setup_s : float;  (** structure create + prefill / service create *)
  window_s : float;  (** the measured run, in CPU seconds *)
  window_wall_s : float;  (** ... and on the monotonic clock *)
  check_s : float;  (** post-run quiesce + oracle + validate *)
  oracle_s : float;  (** the oracle alone (a part of [check_s]) *)
  window_words : float;  (** words allocated inside the window *)
  ops : int;  (** operations completed in the window *)
  failed : int;  (** operations of a run whose oracle failed: all of them *)
  refused : int;  (** requests the service refused: shed or timed out *)
  ok : bool;  (** the workload's oracle passed *)
}

(** Which clock a metric is read from: host CPU time ({!cpu}), host
    wall time ({!now}; for runs on several domains), the simulator's
    virtual cycles, or none (counts, sizes and ratios of counts). *)
type clock = Host | Wall | Virtual | Unclocked

let clock_name = function
  | Host -> "host_cpu"
  | Wall -> "host_wall"
  | Virtual -> "virtual"
  | Unclocked -> "none"

type metric = { name : string; unit_ : string; clock : clock; value : float }

let host name unit_ value = { name; unit_; clock = Host; value }
let wall name unit_ value = { name; unit_; clock = Wall; value }
let virt name unit_ value = { name; unit_; clock = Virtual; value }
let count name unit_ value = { name; unit_; clock = Unclocked; value }

(** The result of one benchmark invocation. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  provenance : (string * string) list;  (** extra members, as JSON text *)
}
