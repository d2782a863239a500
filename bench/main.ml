(* Bechamel microbenchmarks: native single-thread op cost, in real
   time, one Test per table/figure family of the paper. The figures
   themselves are regenerated on the simulated multicore by
   [optik_bench figures].

   Usage:
     dune exec bench/main.exe *)

let bech_tests () =
  let open Bechamel in
  let module N = Harness.Registry.Native in
  let mk_set name (module S : Harness.Registry.SET_OPS) ~capacity ~prefill =
    Test.make ~name
      (Staged.stage (fun () ->
           let t = S.create ~capacity () in
           for i = 1 to prefill do
             ignore (S.insert t ((i * 7919 mod 65_521) + 1) i : bool)
           done;
           (* a mixed burst at the paper's 20% effective update mix *)
           for i = 1 to 64 do
             let k = ((i * 31) mod (2 * prefill)) + 1 in
             if i mod 5 = 0 then ignore (S.insert t k i : bool)
             else if i mod 5 = 1 then ignore (S.delete t k : int option)
             else ignore (S.search t k : int option)
           done))
  in
  let mk_queue name (module Q : Harness.Registry.QUEUE_OPS) =
    Test.make ~name
      (Staged.stage (fun () ->
           let t = Q.create () in
           for i = 1 to 256 do
             Q.enqueue t i
           done;
           for _ = 1 to 256 do
             ignore (Q.dequeue t : int option)
           done))
  in
  [
    (* one per table/figure family *)
    mk_set "fig7.map-optik" N.map_optik ~capacity:128 ~prefill:64;
    mk_set "fig7.map-mcs" N.map_mcs ~capacity:128 ~prefill:64;
    mk_set "fig9.ll-optik" N.ll_optik ~capacity:0 ~prefill:128;
    mk_set "fig9.ll-lazy" N.ll_lazy_ ~capacity:0 ~prefill:128;
    mk_set "fig9.ll-harris" N.ll_harris ~capacity:0 ~prefill:128;
    mk_set "fig10.ht-optik-gl" N.ht_optik_gl ~capacity:128 ~prefill:128;
    mk_set "fig10.ht-java" N.ht_java ~capacity:128 ~prefill:128;
    mk_set "fig11.sl-optik2" N.sl_optik2 ~capacity:0 ~prefill:256;
    mk_set "fig11.sl-fraser" N.sl_fraser ~capacity:0 ~prefill:256;
    mk_queue "fig12.q-ms-lf" N.q_ms_lf;
    mk_queue "fig12.q-optik2" N.q_optik2;
  ]

let () =
  let open Bechamel in
  let open Toolkit in
  print_endline
    "Bechamel microbenchmarks (native backend, single thread, real time)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    (bech_tests ())
