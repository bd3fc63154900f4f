(* Tests for the persistency event bus: dispatch/subscription semantics,
   multi-observer composition (recording + metrics + crash injection on
   one heap), the Trace.detach regression, and streaming-vs-recorded
   lint equivalence. *)

open Wsp_sim
open Wsp_nvheap
module Bus = Wsp_events.Bus
module Trace = Wsp_check.Trace
module Checker = Wsp_check.Checker
module Analyzer = Wsp_analysis.Analyzer
module Rules = Wsp_analysis.Rules
module Metrics = Wsp_obs.Metrics

(* --- Bus ------------------------------------------------------------------ *)

exception Boom

let bus_tests =
  [
    Alcotest.test_case "publish reaches subscribers in subscription order"
      `Quick (fun () ->
        let b = Bus.create () in
        let log = ref [] in
        let _s1 = Bus.subscribe b (fun v -> log := (1, v) :: !log) in
        let _s2 = Bus.subscribe b (fun v -> log := (2, v) :: !log) in
        Alcotest.(check int) "two subscribers" 2 (Bus.subscriber_count b);
        Bus.publish b 7;
        Alcotest.(check (list (pair int int)))
          "in order" [ (1, 7); (2, 7) ] (List.rev !log));
    Alcotest.test_case "zero-subscriber publish is a no-op" `Quick (fun () ->
        let b = Bus.create () in
        Alcotest.(check int) "empty" 0 (Bus.subscriber_count b);
        Bus.publish b 42);
    Alcotest.test_case "unsubscribe removes exactly one and is idempotent"
      `Quick (fun () ->
        let b = Bus.create () in
        let hits = ref 0 in
        let s1 = Bus.subscribe b (fun () -> incr hits) in
        let s2 = Bus.subscribe b (fun () -> incr hits) in
        Bus.unsubscribe s1;
        Bus.publish b ();
        Alcotest.(check int) "one left" 1 !hits;
        Bus.unsubscribe s1;
        (* Repeated cancels must not disturb the surviving subscriber. *)
        Alcotest.(check int) "still one" 1 (Bus.subscriber_count b);
        Bus.publish b ();
        Alcotest.(check int) "still firing" 2 !hits;
        Bus.unsubscribe s2;
        Alcotest.(check int) "empty" 0 (Bus.subscriber_count b));
    Alcotest.test_case "a raising subscriber propagates and skips the rest"
      `Quick (fun () ->
        let b = Bus.create () in
        let later = ref 0 in
        let _s1 = Bus.subscribe b (fun () -> raise Boom) in
        let _s2 = Bus.subscribe b (fun () -> incr later) in
        Alcotest.(check bool) "raises" true
          (try
             Bus.publish b ();
             false
           with Boom -> true);
        (* The crash-injection contract: nothing after the raise runs. *)
        Alcotest.(check int) "later subscriber skipped" 0 !later);
    Alcotest.test_case "only non-sparse subscribers make a bus dense" `Quick
      (fun () ->
        let b = Bus.create () in
        Alcotest.(check (pair bool bool)) "empty" (false, false) (Bus.active b, Bus.dense b);
        let sparse = Bus.subscribe ~sparse:true b (fun () -> ()) in
        Alcotest.(check (pair bool bool)) "sparse only" (true, false)
          (Bus.active b, Bus.dense b);
        let full = Bus.subscribe b (fun () -> ()) in
        Alcotest.(check bool) "dense" true (Bus.dense b);
        Bus.unsubscribe full;
        Bus.unsubscribe full;
        Alcotest.(check bool) "sparse again" false (Bus.dense b);
        Bus.unsubscribe sparse;
        Alcotest.(check bool) "inactive" false (Bus.active b));
    Alcotest.test_case "with_subscriber scopes over exceptions" `Quick
      (fun () ->
        let b = Bus.create () in
        (try Bus.with_subscriber b (fun _ -> ()) (fun () -> raise Exit)
         with Exit -> ());
        Alcotest.(check int) "unsubscribed" 0 (Bus.subscriber_count b));
  ]

(* --- Trace on the bus ----------------------------------------------------- *)

let mk_heap ?(config = Config.foc_ul) () =
  Pheap.create ~config ~size:(Units.Size.kib 256)
    ~log_size:(Units.Size.kib 64) ()

let trace_tests =
  [
    Alcotest.test_case "detach removes exactly its own recorder" `Quick
      (fun () ->
        let heap = mk_heap () in
        let a = Pheap.alloc heap 64 in
        let tr1 = Trace.create () and tr2 = Trace.create () in
        Trace.instrument tr1 heap;
        Trace.instrument tr2 heap;
        Pheap.with_tx heap (fun () -> Pheap.write_u64 heap ~addr:a 1L);
        Trace.detach tr1;
        Pheap.with_tx heap (fun () -> Pheap.write_u64 heap ~addr:(a + 8) 2L);
        Trace.detach tr2;
        let e1 = Trace.events tr1 and e2 = Trace.events tr2 in
        Alcotest.(check bool) "tr2 kept recording after tr1 detached" true
          (Array.length e2 > Array.length e1);
        Alcotest.(check bool) "identical shared prefix" true
          (Array.sub e2 0 (Array.length e1) = e1);
        (* Detaching again is harmless and disturbs nothing. *)
        Trace.detach tr1;
        Trace.detach tr2;
        Alcotest.(check int) "tr2 recording is final" (Array.length e2)
          (Array.length (Trace.events tr2)));
    Alcotest.test_case "instrumenting an attached trace raises" `Quick
      (fun () ->
        let heap = mk_heap () in
        let tr = Trace.create () in
        Trace.instrument tr heap;
        Alcotest.check_raises "second instrument"
          (Invalid_argument "Trace.instrument: trace already attached")
          (fun () -> Trace.instrument tr heap);
        Trace.detach tr);
  ]

(* --- concurrent observers -------------------------------------------------- *)

let counter_names =
  [
    "nvheap.fences";
    "nvheap.log.appends";
    "nvheap.log.append_words";
    "nvheap.log.truncates";
    "nvheap.txn.commits";
    "nvheap.txn.aborts";
  ]

let observer_tests =
  [
    Alcotest.test_case "metrics bridge counts only while subscribed" `Quick
      (fun () ->
        Metrics.reset_all ();
        let heap = mk_heap () in
        let a = Pheap.alloc heap 64 in
        let sub = Event_obs.attach (Pheap.bus heap) in
        for i = 1 to 5 do
          Pheap.with_tx heap (fun () ->
              Pheap.write_u64 heap ~addr:a (Int64.of_int i))
        done;
        Pheap.begin_tx heap;
        Pheap.write_u64 heap ~addr:a 99L;
        Pheap.abort heap;
        Bus.unsubscribe sub;
        Pheap.with_tx heap (fun () -> Pheap.write_u64 heap ~addr:a 123L);
        let v name = Metrics.Counter.value (Metrics.counter (Metrics.ambient ()) name) in
        Alcotest.(check int) "commits" 5 (v "nvheap.txn.commits");
        Alcotest.(check int) "aborts" 1 (v "nvheap.txn.aborts");
        Alcotest.(check bool) "appends counted" true (v "nvheap.log.appends" > 0);
        Alcotest.(check bool) "fences counted" true (v "nvheap.fences" > 0));
    Alcotest.test_case
      "checker verdicts unchanged by concurrent metrics+tracing observers"
      `Slow (fun () ->
        let run ?(jobs = 1) () =
          Checker.check ~jobs ~points:40 ~txns:6 ~shrink:false
            ~kind:Checker.Hash_table ~config:Config.foc_ul ~seed:11 ()
        in
        let s r = Fmt.str "%a" Checker.pp_report r in
        let baseline = run () in
        Event_obs.set_enabled true;
        Wsp_obs.Tracer.set_enabled true;
        let observed = s (run ()) in
        let observed_j4 = s (run ~jobs:4 ()) in
        Event_obs.set_enabled false;
        Wsp_obs.Tracer.set_enabled false;
        Alcotest.(check string) "observed = unobserved" (s baseline) observed;
        Alcotest.(check string) "jobs-invariant" (s baseline) observed_j4);
    Alcotest.test_case "metrics totals independent of job width" `Slow
      (fun () ->
        let workloads = Analyzer.find ~workload:"bank" () in
        let totals jobs =
          Metrics.reset_all ();
          ignore (Analyzer.lint ~jobs ~txns:8 ~workloads ());
          let m = Metrics.merged () in
          List.map
            (fun n -> (n, Metrics.Counter.value (Metrics.counter m n)))
            counter_names
        in
        Event_obs.set_enabled true;
        let j1 = totals 1 in
        let j4 = totals 4 in
        Event_obs.set_enabled false;
        Metrics.reset_all ();
        Alcotest.(check (list (pair string int))) "same totals" j1 j4;
        Alcotest.(check bool) "bridge counted something" true
          (List.exists (fun (_, v) -> v > 0) j1));
  ]

let lint_json ?live ?fault ?jobs ~txns ~seed workloads =
  Analyzer.to_json ~expect:[]
    (Analyzer.lint ?jobs ?live ?fault ~txns ~seed ~workloads ())

(* Emitters build events only for listeners, so attaching observers must
   change nothing the simulation computes: images, clock and the metrics
   JSON of a transactional workload under every configuration, with the
   metrics bridge (a sparse observer) attached alone and then joined by
   three dense no-op observers; and checker and lint JSON with no extra
   observer and with the bridge and tracer on every heap. *)
let observed_run ~extra config =
  Metrics.reset_all ();
  Event_obs.set_enabled true;
  let heap =
    Pheap.create ~config ~size:(Units.Size.kib 256) ~log_size:(Units.Size.kib 64) ()
  in
  Event_obs.set_enabled false;
  for _ = 1 to extra do
    ignore (Bus.subscribe (Pheap.bus heap) (fun _ -> ()))
  done;
  let rng = Rng.create ~seed:7 in
  let blocks = Array.init 8 (fun _ -> Pheap.alloc heap 64) in
  let writes i =
    for _ = 1 to 3 do
      let addr = blocks.(Rng.int rng 8) + (8 * Rng.int rng 8) in
      Pheap.write_u64 heap ~addr (Int64.of_int i)
    done
  in
  for i = 1 to 60 do
    if i mod 7 = 0 then begin
      Pheap.begin_tx heap;
      writes i;
      Pheap.abort heap
    end
    else Pheap.with_tx heap (fun () -> writes i)
  done;
  let nv = Pheap.nvram heap in
  let before = (Nvram.volatile_image nv, Nvram.persistent_image nv, Nvram.clock nv) in
  let metrics = Metrics.to_json (Metrics.ambient ()) in
  Nvram.crash nv;
  (before, Nvram.persistent_image nv, metrics)

let observer_identity_tests =
  [
    Alcotest.test_case "observers leave images, clock and metrics unchanged"
      `Quick (fun () ->
        List.iter
          (fun config ->
            Alcotest.(check bool)
              (config.Config.name ^ ": bridge alone = bridge + 3 observers")
              true
              (observed_run ~extra:0 config = observed_run ~extra:3 config))
          Config.all_backends;
        Metrics.reset_all ());
    Alcotest.test_case "checker and lint JSON unchanged by observers" `Slow
      (fun () ->
        let check () =
          Checker.reports_to_json
            (List.map
               (fun config ->
                 Checker.check ~jobs:1 ~points:40 ~txns:6 ~shrink:false
                   ~kind:Checker.Hash_table ~config ~seed:11 ())
               [ Config.foc_ul; Config.foc_stm; Config.fof ])
        in
        let lint () =
          lint_json ~jobs:1 ~txns:8 ~seed:5 (Analyzer.find ~workload:"bank" ())
        in
        let plain = (check (), lint ()) in
        Event_obs.set_enabled true;
        Wsp_obs.Tracer.set_enabled true;
        let observed = (check (), lint ()) in
        Event_obs.set_enabled false;
        Wsp_obs.Tracer.set_enabled false;
        Metrics.reset_all ();
        Alcotest.(check (pair string string)) "same JSON" plain observed);
  ]

(* --- streaming ≡ recorded -------------------------------------------------- *)

let streaming_tests =
  [
    Alcotest.test_case "live lint with sabotage matches recorded" `Quick
      (fun () ->
        let workloads = Analyzer.find ~workload:"bank" ~config:"foc-ul" () in
        let recorded =
          lint_json ~fault:Checker.Broken_fences ~jobs:1 ~txns:8 ~seed:3
            workloads
        in
        let live =
          lint_json ~live:true ~fault:Checker.Broken_fences ~jobs:1 ~txns:8
            ~seed:3 workloads
        in
        Alcotest.(check string) "byte-identical JSON" recorded live;
        let reports =
          Analyzer.lint ~jobs:1 ~live:true ~fault:Checker.Broken_fences
            ~txns:8 ~seed:3 ~workloads ()
        in
        let errs, _ = Analyzer.errors ~expect:[] reports in
        Alcotest.(check bool) "sabotage convicted live" true (errs > 0));
    Alcotest.test_case "live lint JSON is jobs-invariant" `Slow (fun () ->
        let workloads = Analyzer.find ~workload:"bank" () in
        Alcotest.(check string) "jobs 1 = jobs 4"
          (lint_json ~live:true ~jobs:1 ~txns:8 ~seed:5 workloads)
          (lint_json ~live:true ~jobs:4 ~txns:8 ~seed:5 workloads));
  ]

let streaming_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"streaming lint = record-then-analyze"
         ~count:12
         QCheck2.Gen.(
           triple (int_range 1 8) (int_range 0 2) (int_range 1 10_000))
         (fun (txns, cfg_i, seed) ->
           let config =
             List.nth [ Config.foc_ul; Config.foc_stm; Config.fof ] cfg_i
           in
           let workloads =
             Analyzer.find ~workload:"bank"
               ~config:(Analyzer.config_slug config) ()
           in
           workloads <> []
           &&
           let recorded =
             Analyzer.lint ~jobs:1 ~txns ~seed ~workloads ()
           in
           let live =
             Analyzer.lint ~jobs:1 ~live:true ~txns ~seed ~workloads ()
           in
           Analyzer.to_json ~expect:[] recorded
           = Analyzer.to_json ~expect:[] live
           && List.for_all2
                (fun (a : Analyzer.report) (b : Analyzer.report) ->
                  a.Analyzer.result.Rules.diagnostics
                  = b.Analyzer.result.Rules.diagnostics
                  && a.Analyzer.result.Rules.stats
                     = b.Analyzer.result.Rules.stats)
                recorded live));
  ]

let suite =
  [
    ("events.bus", bus_tests);
    ("events.trace", trace_tests);
    ("events.observers", observer_tests @ observer_identity_tests);
    ("events.streaming", streaming_tests @ streaming_props);
  ]
