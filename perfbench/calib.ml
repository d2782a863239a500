(** Host-speed calibration for the end-to-end host-time metrics.

    The benchmark shares its host with other load. Process CPU time
    ({!Measure.cpu}) leaves out the time the process is descheduled,
    but not the time it runs slower: the same run of the same code
    takes 15-25% more or less CPU time from one minute to the next,
    while a pure arithmetic loop keeps its speed. What varies is the
    speed of allocating, pointer-chasing work such as the simulator's.

    So right before each host-time run the benchmark times a fixed
    kernel of its own with that profile, and scales the run's host
    times to the speed at which the kernel takes {!reference_s}. The
    kernel searches a balanced tree ([Stdlib.Map], 16,384 keys, built
    once) and makes path-copying inserts into it that it drops at once.
    Its garbage dies in the minor heap, so it promotes almost nothing
    and starts no major-heap work: its time does not depend on how much
    the workload or the library keeps live. It runs no code of the
    repository, so no change to the program under test moves it. *)

module M = Map.Make (Int)

let keys = 1 lsl 14
let rounds = 120_000

(** The kernel's CPU time that defines the reference speed: about its
    median on a shared 2-core x86-64 host under OCaml 5.1.1. *)
let reference_s = 0.08

(* Fixed pseudo-random keys, the same for every seed. *)
let next x = ((x * 1103515245) + 12345) land 0x3fffffff

let tree =
  lazy
    (let m = ref M.empty and x = ref 1 in
     for _ = 1 to keys do
       x := next !x;
       m := M.add (!x land 0xfffff) !x !m
     done;
     !m)

(** One timed run of the kernel, in CPU seconds. The tree is built on
    the first call, outside the timing. *)
let kernel_s () =
  let m = Lazy.force tree in
  let t0 = Measure.cpu () in
  let x = ref 7 and hits = ref 0 in
  for _ = 1 to rounds do
    x := next !x;
    let k = !x land 0xfffff in
    if M.mem k m then incr hits;
    ignore (Sys.opaque_identity (M.add k !x m))
  done;
  ignore (Sys.opaque_identity !hits);
  Measure.cpu () -. t0
