(** The layer ladder: one seeded key stream driven through successively
    more of the stack, so each layer's host cost is the difference
    between its rung and the rung below.

    1. engine only: a [Harness.Runner.run_guarded] fetch-and-add loop
       over 64 striped counters, like hostperf's [cap/faa];
    2. a bare [ht-optik] store through its [SET_OPS] operations;
    3. the same store through the [VERSIONED_OPS] hooks: every operation
       takes a versioned read; a search then validates its token with
       [commit_check], an update locks the key's stripe with the token
       and commits (or gives up when the token went stale);
    4. the KV service and the transaction manager, as their workloads
       measure them.

    Rungs 1-3 share the simulated machine (8 threads on the Xeon), the
    stream and the per-operation pacing ([tick] + [work]), so only the
    layer under test differs. A fifth rung runs a registry hash table on
    real domains, the one place the OPTIK lock runs on real atomics. *)

module R = Harness.Registry
module Runner = Harness.Runner
module Rng = Harness.Rng

let topology = Sim.Topology.xeon
let nthreads = 8
let ops = 20_000
let keys = 1024
let stream_len = 8192

(* [host_s] is CPU time on the simulator rungs and wall time on the
   native rung, whose domains run in parallel. *)
type rung = { host_s : float; words : float; ops : int; ok : bool }

let ns_per_op r = r.host_s *. 1e9 /. float_of_int (max 1 r.ops)
let words_per_op r = r.words /. float_of_int (max 1 r.ops)

type op = Search | Insert | Delete

(* The key stream: keys uniform over twice the prefill, 20% inserts,
   20% deletes. *)
let stream ~seed =
  let rng = Rng.create ((seed * 7919) + 17) in
  Array.init stream_len (fun _ ->
      let k = 1 + Rng.below rng (2 * keys) in
      let p = Rng.below rng 100 in
      (k, if p < 20 then Insert else if p < 40 then Delete else Search))

(* Drive [body] over the stream: thread [tid] takes every [nthreads]-th
   entry, paced like the runner's loop. *)
let drive ~stream body =
  let t0 = Measure.cpu () and w0 = Measure.words () in
  let stats, outcome =
    Runner.run_guarded ~topology ~nthreads ~ops_target:ops (fun tid ->
        let i = ref tid in
        while not (Sim.Sched.stop_requested ()) do
          let k, op = stream.(!i mod stream_len) in
          body k op;
          i := !i + nthreads;
          Sim.Sched.tick ();
          Sim.Sched.work 64
        done)
  in
  let host_s = Measure.cpu () -. t0 and words = Measure.words () -. w0 in
  { host_s; words; ops = stats.Sim.Sched.ops; ok = outcome = Runner.Complete }

let engine ~seed =
  Chaos.fresh_world ();
  let stream = stream ~seed in
  let group = Sim.Sched.fresh_group () in
  let locs = Array.init 64 (fun _ -> Sim.Sched.loc_packed ~group 0) in
  drive ~stream (fun k _ -> ignore (Sim.Sched.faa locs.(k land 63) 1))

module S = (val R.Sim_backend.ht_optik : R.SET_OPS)

(* A store prefilled with the stream's first [keys] distinct keys, built
   outside the simulation. *)
let store ~stream =
  let t = S.create ~capacity:keys () in
  let n = ref 0 in
  Array.iter (fun (k, _) -> if !n < keys && S.insert t k k then incr n) stream;
  t

let bare ~seed =
  Chaos.fresh_world ();
  let stream = stream ~seed in
  let t = store ~stream in
  let r =
    drive ~stream (fun k op ->
        match op with
        | Search -> ignore (S.search t k)
        | Insert -> ignore (S.insert t k k)
        | Delete -> ignore (S.delete t k))
  in
  { r with ok = r.ok && S.validate t }

let versioned ~seed =
  Chaos.fresh_world ();
  let stream = stream ~seed in
  let t = store ~stream in
  let r =
    drive ~stream (fun k op ->
        let _, tok = S.read_versioned t k in
        match op with
        | Search -> ignore (S.commit_check t tok)
        | Insert | Delete ->
            let h = S.lock_handle t k in
            if h.Locks.Handle.acquire tok then begin
              (if op = Insert then ignore (S.insert t k k)
               else ignore (S.delete t k));
              h.Locks.Handle.commit ()
            end)
  in
  { r with ok = r.ok && S.validate t }

(* ------------------------------------------------------------------ *)
(* Native rung                                                         *)

let native_domains = 2
let native_init = 1024
let native_ops_per_domain = 200_000

(** Registry [hashtables]/[optik-gl] on real domains through
    [Harness.Runner.run_set_native]: 1024 initial keys, 2048 buckets,
    40% attempted updates. *)
let native ~seed =
  let s = R.Native.find_named R.Native.hashtables "optik-gl" in
  let (module H), mk =
    Hooked.hook s ~init_size:native_init ~ops:0 ~tid:Rt.Native_rt.tid
  in
  let w =
    Runner.uniform_workload ~capacity:(2 * native_init) ~init_size:native_init
      ~update_pct:40 ()
  in
  let m =
    Runner.run_set_native ~nthreads:native_domains
      ~ops_per_thread:native_ops_per_domain ~seed (module H) w
  in
  {
    host_s = m.Runner.host_s;
    words = Hooked.window_words mk;
    ops = m.Runner.ops;
    ok =
      m.Runner.valid
      && m.Runner.final_size
         = native_init + Hooked.inserted mk - Hooked.deleted mk;
  }
