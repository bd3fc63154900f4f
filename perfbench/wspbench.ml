(* The repository benchmark.

   Three workloads, each timed end to end on one domain:
     repro   Table 1, Figure 5 and the Figure-4 protocol runs (write-heavy,
             every persistence configuration, L3-overflowing directory)
     shard   the sharded directory service: 64 closed-loop clients, 4 FoF
             shards, YCSB-B 95/4/1 at Zipf 0.99, one grow and one shrink
             by image shipping, one single-shard power failure
     verify  convicted checker cells with shrinking, clean checker cells,
             and the static lints over both workload registries

   With --trace 1 the benchmark instead times its own calls into each
   layer's public functions (spans kept in memory, written once at exit
   as Chrome trace_event JSON) and prints the per-layer metrics. Nothing
   inside lib/ is instrumented for it.

   Usage (from the repository root; run.py builds and forwards):
     wspbench.exe --workload W --seed N --seconds S --trace 0|1
       [--smoke] [--tamper] [--record-goldens] [--goldens FILE]
       [--out-dir DIR]

   The last stdout line is one JSON object: correct, attempted, failed,
   metrics. The exit code is 1 when any output is wrong, 2 on bad usage. *)

open Wsp_sim
module Config = Wsp_nvheap.Config
module Pheap = Wsp_nvheap.Pheap
module Nvram = Wsp_nvheap.Nvram
module Event = Wsp_nvheap.Event
module Image = Wsp_nvheap.Image
module Hierarchy = Wsp_machine.Hierarchy
module Platform = Wsp_machine.Platform
module Avl = Wsp_store.Avl
module Hash_table = Wsp_store.Hash_table
module Directory = Wsp_store.Directory
module System = Wsp_core.System
module Checker = Wsp_check.Checker
module Trace = Wsp_check.Trace
module Rules = Wsp_analysis.Rules
module Crules = Wsp_analysis.Crules
module Analyzer = Wsp_analysis.Analyzer
module Canalyzer = Wsp_analysis.Canalyzer
module Service = Wsp_shard.Service
module Client = Wsp_shard.Client
module Router = Wsp_shard.Router
module X = Wsp_experiments
module Counter = Wsp_obs.Metrics.Counter

(* ---- host clock and in-memory spans -------------------------------- *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  layer : string;
  name : string;
  cell : string;  (** Cell, request or pass id; [""] when none. *)
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let finished : span list ref = ref []
let open_spans : int list ref = ref []
let last_id = ref 0

(* Runs [f], returning its result and host wall seconds; when tracing,
   also records a span around the call. One wrapper for both, so the
   traced run times exactly the calls the untraced run times. *)
let timed ?(layer = "bench") ?(cell = "") name f =
  let t0 = now () in
  if not !tracing then begin
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    incr last_id;
    let id = !last_id in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    let s = { id; parent; layer; name; cell; t0; t1 = t0 } in
    open_spans := id :: !open_spans;
    let close () =
      s.t1 <- now ();
      open_spans := List.tl !open_spans;
      finished := s :: !finished
    in
    let r = Fun.protect ~finally:close f in
    (r, s.t1 -. s.t0)
  end

let dur s = s.t1 -. s.t0

(* A span's self time: its duration minus what its direct children
   cover (children nest strictly inside their parent on one thread). *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (dur s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_trace path =
  let spans =
    List.sort (fun (a, _) (b, _) -> compare (a.t0, a.id) (b.t0, b.id))
      (self_times !finished)
  in
  let origin = match spans with (s, _) :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\
         \"cell\":%s,\"self_us\":%.3f}}"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string s.layer)
        ((s.t0 -. origin) *. 1e6)
        (dur s *. 1e6) s.id s.parent (json_string s.cell) (self *. 1e6))
    spans;
  output_string oc "\n]}\n";
  close_out oc

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest of a few fixed percentiles that still has at least ten
   samples above it, as (percentile, nearest-rank value). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then
        let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
        Some (p, a.(max 0 (rank - 1)))
      else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- sizes --------------------------------------------------------- *)

type sizes = {
  label : string;  (** ["full"] or ["smoke"]; keys the golden table. *)
  t1_entries : int;
  f5_entries : int;
  f5_ops : int;
  f5_points : int;
  requests : int;
  keyspace : int;
  clean_txns : int;
  clean_setup : int;  (** Checker [setup_entries]. *)
  clean_points : int;
  conv_txns : int;
  conv_setup : int;
  conv_points : int;
  lint_txns : int;
  clint_txns : int;
  ladder_ops : int;  (** Operations per per-layer probe. *)
}

(* Table 1 keeps 2,000 entries: 4 KiB entries then overflow the
   simulated 8 MiB L3, the regime the full reproduction runs in. *)
let full =
  {
    label = "full";
    t1_entries = 2_000;
    f5_entries = 2_000;
    f5_ops = 5_000;
    f5_points = 2;
    requests = 200_000;
    keyspace = 20_000;
    clean_txns = 16;
    clean_setup = 8;
    clean_points = 40;
    conv_txns = 4;
    conv_setup = 4;
    conv_points = 2_000;
    lint_txns = 32;
    clint_txns = 24;
    ladder_ops = 20_000;
  }

let smoke =
  {
    label = "smoke";
    t1_entries = 40;
    f5_entries = 100;
    f5_ops = 200;
    f5_points = 2;
    requests = 4_000;
    keyspace = 1_000;
    clean_txns = 2;
    clean_setup = 2;
    clean_points = 5;
    conv_txns = 2;
    conv_setup = 2;
    conv_points = 2_000;
    lint_txns = 2;
    clint_txns = 2;
    ladder_ops = 500;
  }

(* ---- one pass of a workload ---------------------------------------- *)

type pass = {
  wall : float;  (** Host seconds for the whole pass. *)
  digest : string;  (** MD5 of the pass's canonical simulated outputs. *)
  attempted : int;
  failed : int;
  problems : string list;  (** Broken invariants: the run is wrong. *)
  findings : string list;
      (** Verdicts that differ from the expected verdict: counted as
          failed operations and reported, but the outputs themselves
          are checked by digest. *)
  work : float;  (** Units of work for [work_per_s]. *)
  work_time : float;  (** Host seconds those units took. *)
  samples : (string * float) list;  (** Named per-pass samples. *)
}

let outcome_text (o : System.outcome) =
  match o with
  | System.Recovered { resume_latency; ios_failed; ios_replayed } ->
      Printf.sprintf "recovered %d %d %d" (Time.to_ps resume_latency)
        ios_failed ios_replayed
  | System.Invalid_marker | System.No_image -> System.outcome_name o

let is_recovered (o : System.outcome) =
  match o with
  | System.Recovered _ -> true
  | System.Invalid_marker | System.No_image -> false

let repro_pass sz ~seed =
  let cell = Printf.sprintf "seed=%d" seed in
  let t0 = now () in
  let t1, t1_s =
    timed ~layer:"experiments" ~cell "Table1.data" (fun () ->
        X.Table1.data ~entries:sz.t1_entries ~seed ())
  in
  let f5, f5_s =
    timed ~layer:"experiments" ~cell "Figure5.data" (fun () ->
        X.Figure5.data ~entries:sz.f5_entries ~ops:sz.f5_ops
          ~points:sz.f5_points ~seed ())
  in
  let pr, pr_s =
    timed ~layer:"experiments" ~cell "Protocol.data" (fun () ->
        X.Protocol.data ~seed ())
  in
  let wall = now () -. t0 in
  let b = Buffer.create 2048 in
  List.iter
    (fun (r : X.Table1.row) ->
      Printf.bprintf b "table1 %s %h\n" r.label r.updates_per_s)
    t1;
  List.iter
    (fun (s : X.Figure5.series) ->
      List.iter
        (fun (p, t) ->
          Printf.bprintf b "figure5 %s %h %d\n" s.config.Config.name p
            (Time.to_ps t))
        s.points)
    f5;
  List.iter
    (fun (r : X.Protocol.row) ->
      Printf.bprintf b "protocol %s %d %s %s %b\n" r.label
        (Time.to_ps r.window)
        (match r.host_save with
        | Some t -> string_of_int (Time.to_ps t)
        | None -> "-")
        (outcome_text r.outcome) r.data_intact)
    pr;
  (* What the paper claims and the protocol guarantees, on any seed:
     WSP beats flush-on-commit, FoC+STM is slower than FoF at every
     update probability, and every protocol run restores its data
     intact except the ACPI strawman, which the image marker catches. *)
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let speedup = X.Table1.speedup t1 in
  if not (speedup > 1.0) then fail "table1: WSP speed-up %.3f <= 1" speedup;
  let lo, _ = X.Figure5.slowdown_range f5 in
  if not (lo > 1.0) then fail "figure5: FoC+STM/FoF slowdown %.3f <= 1" lo;
  List.iter
    (fun (r : X.Protocol.row) ->
      let acpi = Filename.check_suffix r.label "ACPI strawman" in
      if r.data_intact <> is_recovered r.outcome || r.data_intact = acpi then
        fail "protocol: %s %s, data intact %b" r.label
          (System.outcome_name r.outcome) r.data_intact)
    pr;
  let configs = List.length f5 in
  {
    wall;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    attempted = List.length t1 + (configs * sz.f5_points) + List.length pr;
    failed = List.length !problems;
    problems = !problems;
    findings = [];
    work =
      float_of_int
        ((2 * sz.t1_entries)
        + (configs * sz.f5_points * (sz.f5_entries + sz.f5_ops)));
    work_time = t1_s +. f5_s;
    samples =
      [
        ("table1_s", t1_s);
        ("figure5_s", f5_s);
        ("protocol_s", pr_s);
        ("table1_err", Float.abs ((speedup /. 2.4) -. 1.0));
      ];
  }

let shard_clients = 64
let shard_count = 4
let shard_heap = Units.Size.mib 1
let shard_mix = { Client.lookups = 95; inserts = 4; deletes = 1 }

(* Grow early, crash one shard a third of the way in, shrink (retiring
   the grown shard) past the middle. queue_cap covers the whole client
   population and every backlog, so nothing is shed: the failure count
   is the acked-write loss and shedding the run must not have. *)
let shard_params sz ~seed =
  let rounds = sz.requests / shard_clients in
  {
    Service.default with
    shards = shard_count;
    clients = shard_clients;
    requests = sz.requests;
    keyspace = sz.keyspace;
    theta = 0.99;
    mix = shard_mix;
    queue_cap = 1024;
    shard_heap;
    seed;
    grow_at = Some (rounds / 8);
    crash_at = Some (rounds / 3);
    crash_shard = Some 1;
    shrink_at = Some (rounds * 9 / 16);
    migrate_mode = `Image;
  }

let shard_pass sz ~seed =
  let r, wall =
    timed ~layer:"shard" ~cell:(Printf.sprintf "seed=%d" seed) "Service.run"
      (fun () -> Service.run ~jobs:1 (shard_params sz ~seed))
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if r.Service.lost_acked <> 0 then fail "shard: %d acked writes lost" r.lost_acked;
  if r.misplaced_keys <> 0 then fail "shard: %d misplaced keys" r.misplaced_keys;
  if r.shed + r.crash_shed <> 0 then
    fail "shard: %d shed, %d crash-shed" r.shed r.crash_shed;
  if r.served + r.shed + r.crash_shed <> r.issued then
    fail "shard: served %d + shed %d + crash-shed %d <> issued %d" r.served
      r.shed r.crash_shed r.issued;
  if List.length r.topology <> 2 || r.images_shipped < 2 then
    fail "shard: %d topology changes, %d images shipped"
      (List.length r.topology) r.images_shipped;
  if List.length r.restores <> 1 then
    fail "shard: %d restores" (List.length r.restores);
  let text = Service.to_json r ^ Printf.sprintf "checksum %Lx\n" r.checksum in
  {
    wall;
    digest = Digest.to_hex (Digest.string text);
    attempted = r.issued;
    failed = r.shed + r.crash_shed + r.lost_acked;
    problems = !problems;
    findings = [];
    work = float_of_int r.served;
    work_time = wall;
    samples =
      List.map
        (fun (k, v) -> (k, float_of_int v))
        [
          ("served", r.served);
          ("shed", r.shed);
          ("crash_shed", r.crash_shed);
          ("keys_moved", r.keys_moved);
          ("image_bytes", r.image_bytes);
          ("image_deltas", r.image_deltas);
        ];
  }

let convicted_cells =
  List.concat_map
    (fun kind -> [ (kind, Config.foc_ul); (kind, Config.foc_stm) ])
    [ Checker.Btree; Checker.Hash_table; Checker.Skiplist ]

let clean_cells =
  List.concat_map
    (fun kind ->
      List.map
        (fun config -> (kind, config))
        [ Config.foc_ul; Config.foc_stm; Config.fof; Config.msync ])
    Checker.all_kinds

let cell_id (kind, config) =
  Checker.kind_name kind ^ "/" ^ Analyzer.config_slug config

(* The concurrent registry's expected verdicts (the static/dynamic
   agreement matrix): every racy structure is convicted except the racy
   counter under FoF, whose flush-on-fail save obviates the race. *)
let clint_convicted =
  [
    "dqueue-racy/foc-ul";
    "dqueue-racy/fof";
    "dcounter-racy/foc-ul";
    "handoff-racy/foc-ul";
    "handoff-racy/fof";
  ]

let events_of (reports : Analyzer.report list) =
  List.fold_left
    (fun acc (r : Analyzer.report) -> acc + r.result.Rules.stats.events)
    0 reports

(* Runs one judged cell. A cell that raises (the simulated allocator's
   [Out_of_memory], say) is a failed cell like a wrong verdict: the
   exception is recorded in [raised] and the run goes on. *)
let guard raised ~seed cell f =
  match f () with
  | r -> Some r
  | exception e ->
      raised :=
        Printf.sprintf "verify: %s raised %s at seed %d" cell
          (Printexc.to_string e) seed
        :: !raised;
      None

(* The convicted cells: broken fences under undo and redo logging, each
   checked exhaustively (more points than the trace has) so conviction
   holds on every seed, then shrunk to a reproducer. Timed per cell as
   time-to-witness; an acquittal is a failed cell, as in [verify_pass]. *)
let witness_phase sz ~seed =
  let t0 = now () in
  let raised = ref [] in
  let cells =
    List.filter_map
      (fun ((kind, config) as c) ->
        let cell = cell_id c in
        guard raised ~seed cell @@ fun () ->
        let r, witness =
          timed ~layer:"check" ~cell "Checker.check" (fun () ->
              Checker.check ~jobs:1 ~points:sz.conv_points ~txns:sz.conv_txns
                ~setup_entries:sz.conv_setup ~fault:Checker.Broken_fences ~kind
                ~config ~seed ())
        in
        let finding =
          if r.Checker.violations = [] || r.shrunk = None then
            Some
              (Printf.sprintf
                 "verify: %s not convicted under broken fences at seed %d" cell
                 seed)
          else None
        in
        (r, witness, finding))
      convicted_cells
  in
  let findings = List.filter_map (fun (_, _, f) -> f) cells @ !raised in
  let text =
    Checker.reports_to_json (List.map (fun (r, _, _) -> r) cells)
    ^ String.concat "\n" !raised
  in
  {
    wall = now () -. t0;
    digest = Digest.to_hex (Digest.string text);
    attempted = List.length convicted_cells;
    failed = List.length findings;
    problems = [];
    findings;
    work = 0.0;
    work_time = 0.0;
    samples = List.map (fun (_, w, _) -> ("witness_s", w)) cells;
  }

(* One verify pass: the clean checker cells, then both lints. A verdict
   that differs from the expected one is a failed cell, reported as a
   finding; the reports themselves are checked by digest. *)
let verify_pass sz ~seed =
  let t0 = now () in
  let findings = ref [] and raised = ref [] in
  let finding fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let clean, clean_s =
    timed ~layer:"bench" "clean cells" (fun () ->
        List.filter_map
          (fun ((kind, config) as c) ->
            let cell = cell_id c in
            guard raised ~seed cell @@ fun () ->
            let r, _ =
              timed ~layer:"check" ~cell "Checker.check" (fun () ->
                  Checker.check ~jobs:1 ~points:sz.clean_points
                    ~txns:sz.clean_txns ~setup_entries:sz.clean_setup
                    ~shrink:false ~kind ~config ~seed ())
            in
            (match r.Checker.violations with
            | v :: _ ->
                finding "verify: clean cell %s convicted at seed %d: %s" cell
                  seed v.Checker.message
            | [] -> ());
            r)
          clean_cells)
  in
  let points =
    List.fold_left (fun acc r -> acc + r.Checker.points_explored) 0 clean
  in
  let lint, lint_s =
    timed ~layer:"analysis" "Analyzer.lint" (fun () ->
        guard raised ~seed "lint" (fun () ->
            Analyzer.lint ~jobs:1 ~txns:sz.lint_txns ~seed
              ~workloads:Analyzer.registry ())
        |> Option.value ~default:[])
  in
  let lint_bad =
    List.filter
      (fun r -> Analyzer.errors ~expect:[ Rules.R3 ] [ r ] <> (0, 0))
      lint
  in
  List.iter
    (fun (r : Analyzer.report) ->
      let rules =
        List.sort_uniq compare
          (List.filter_map
             (fun (d : Rules.diagnostic) ->
               if d.rule = Rules.R3 then None else Some (Rules.rule_name d.rule))
             r.result.Rules.diagnostics)
      in
      finding "verify: lint flags clean registry workload %s at seed %d (%s)"
        r.workload seed (String.concat "," rules))
    lint_bad;
  let clint, clint_s =
    timed ~layer:"analysis" "Canalyzer.clint" (fun () ->
        guard raised ~seed "clint" (fun () ->
            Canalyzer.clint ~jobs:1 ~txns:sz.clint_txns ~seed
              ~workloads:Canalyzer.cregistry ())
        |> Option.value ~default:[])
  in
  let clint_bad =
    List.filter
      (fun (r : Analyzer.report) ->
        let convicted = fst (Analyzer.errors ~expect:[] [ r ]) > 0 in
        convicted <> List.mem r.workload clint_convicted)
      clint
  in
  List.iter
    (fun (r : Analyzer.report) ->
      finding "verify: clint verdict on %s differs from the agreement matrix"
        r.workload)
    clint_bad;
  let wall = now () -. t0 in
  let text =
    Checker.reports_to_json clean
    ^ Analyzer.to_json ~expect:[ Rules.R3 ] lint
    ^ Analyzer.to_json ~expect:[] clint
    ^ String.concat "\n" (List.rev !raised)
  in
  let findings = List.rev_append !findings (List.rev !raised) in
  {
    wall;
    digest = Digest.to_hex (Digest.string text);
    attempted =
      List.length clean_cells
      + List.length Analyzer.registry
      + List.length Canalyzer.cregistry;
    failed = List.length findings;
    problems = [];
    findings;
    work = float_of_int points;
    work_time = clean_s;
    samples =
      [
        ( "lint_events_per_s",
          ratio (float_of_int (events_of lint + events_of clint))
            (lint_s +. clint_s) );
        ("lint_s", lint_s);
      ];
  }

let workloads = [ "repro"; "shard"; "verify" ]

(* [witness] is the verify workload's convicted-cell phase; it has its
   own goldens but is not a workload of its own. *)
let run_pass name sz ~seed =
  match name with
  | "repro" -> repro_pass sz ~seed
  | "shard" -> shard_pass sz ~seed
  | "witness" -> witness_phase sz ~seed
  | _ -> verify_pass sz ~seed

(* Pass [k] of a run uses inputs derived from the run seed and [k mod
   golden_passes], so a run's median spans several input sets and every
   input set has a committed digest for the golden seeds. *)
let golden_passes = 8
let sub_seed seed k = (seed * 16) + (k mod golden_passes) + 1

(* ---- goldens ------------------------------------------------------- *)

(* "workload size seed k md5" per line; '#' starts a comment. *)
let load_goldens path =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line with
           | [ w; size; seed; k; md5 ] ->
               Hashtbl.replace tbl
                 (w, size, int_of_string seed, int_of_string k)
                 md5
           | _ -> failwith ("bad golden line: " ^ line)
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

(* ---- the untraced run: end-to-end metrics -------------------------- *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Set-up: one smoke-size pass of the workload (lazy initialisation,
   first-touch heap growth, code paths run once). Set-up passes run on
   the development seed's inputs, whose smoke digests are committed, so
   every run checks goldens whatever its own seed; pass [k] uses input
   set [k mod golden_passes], so a run with more than [golden_passes]
   of them also checks determinism. *)
let dev_seed = 1
let setup_pass name k = (k, run_pass name smoke ~seed:(sub_seed dev_seed k))

(* Warm-up before the timed passes. *)
let setup_min_reps = 3
let setup name = List.init setup_min_reps (setup_pass name)

(* Runs timed passes until the next one would overrun [seconds]; at
   least one. One more set-up pass follows each timed pass, so the
   median set-up pass ([setup_s]) samples the host over the same span
   as [pass_s]: the host's speed drifts over tens of seconds, and a
   set-up timed only at the start would follow that drift alone.
   Returns the set-up passes (warm-up included) and the timed ones. *)
let measure name sz ~seed ~seconds =
  let warm = setup name in
  let start = now () in
  let rec go k setups acc =
    (* Every pass starts from a compacted heap, not from whatever the
       previous pass left behind. *)
    Gc.compact ();
    let p = run_pass name sz ~seed:(sub_seed seed k) in
    Gc.compact ();
    let s = setup_pass name (setup_min_reps + k) in
    let acc = (k, p) :: acc and setups = s :: setups in
    let elapsed = now () -. start in
    if elapsed +. p.wall +. (snd s).wall <= seconds then go (k + 1) setups acc
    else (List.rev setups, List.rev acc)
  in
  go 0 (List.rev warm) []

type verdict = {
  correct : bool;
  attempted : int;
  failed : int;
  matched : int;  (** Golden digests compared and equal. *)
  notes : string list;
}

let judge goldens name sz ~seed ~tamper passes =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let seen = Hashtbl.create 8 in
  let matched = ref 0 in
  List.iter
    (fun (k, p) ->
      List.iter (fun s -> note "invariant: %s" s) p.problems;
      List.iter (fun s -> say "finding: %s" s) p.findings;
      let slot = k mod golden_passes in
      (match Hashtbl.find_opt seen slot with
      | Some d when d <> p.digest ->
          note "pass %d: digest %s differs from an earlier pass on the same inputs"
            k p.digest
      | Some _ | None -> Hashtbl.replace seen slot p.digest);
      match Hashtbl.find_opt goldens (name, sz.label, seed, slot) with
      | Some expected ->
          let expected = if tamper then "0" ^ expected else expected in
          if expected <> p.digest then
            note "pass %d: digest %s, golden %s" k p.digest expected
          else incr matched
      | None -> ())
    passes;
  if tamper && !matched = 0 && !notes = [] then
    note "tamper: no golden exists for this seed and size";
  let attempted =
    List.fold_left (fun a (_, (p : pass)) -> a + p.attempted) 0 passes
  in
  let failed = List.fold_left (fun a (_, (p : pass)) -> a + p.failed) 0 passes in
  {
    correct = !notes = [];
    attempted;
    failed;
    matched = !matched;
    notes =
      List.rev !notes
      @ [ Printf.sprintf "%s %s seed %d: golden digests matched: %d" name
            sz.label seed !matched ];
  }

(* A run that compared no golden digest at all checked nothing: the
   goldens file is missing or lacks the development seed. *)
let combine verdicts =
  let matched = List.fold_left (fun a v -> a + v.matched) 0 verdicts in
  {
    correct = matched > 0 && List.for_all (fun v -> v.correct) verdicts;
    attempted = List.fold_left (fun a v -> a + v.attempted) 0 verdicts;
    failed = List.fold_left (fun a v -> a + v.failed) 0 verdicts;
    matched;
    notes =
      List.concat_map (fun v -> v.notes) verdicts
      @ (if matched = 0 then [ "no golden digest was compared" ] else []);
  }

let samples_of key passes =
  List.concat_map
    (fun (_, p) ->
      List.filter_map (fun (k, v) -> if k = key then Some v else None) p.samples)
    passes

(* ---- the traced run: per-layer metrics ----------------------------- *)

let counter name =
  Counter.value (Wsp_obs.Metrics.counter (Wsp_obs.Metrics.ambient ()) name)

let counters names = List.map counter names

let cache_counters =
  [ "machine.cache.hits"; "machine.cache.misses"; "machine.cache.evictions" ]

let nvheap_counters =
  [ "nvheap.txn.commits"; "nvheap.txn.aborts"; "nvheap.log.appends"; "nvheap.fences" ]

let deltas before after = List.map2 (fun b a -> a - b) before after

(* Word addresses of every store an event stream issues. *)
let store_words (ev : Event.t) k =
  match ev with
  | Event.Mem (Event.Store { addr; len }) ->
      let a = ref (addr land lnot 7) in
      while !a < addr + len do
        k !a;
        a := !a + 8
      done
  | Event.Mem (Event.Store_nt { addr }) -> k (addr land lnot 7)
  | Event.Mem (Event.Fence | Event.Clflush _ | Event.Flush_range _ | Event.Wbinvd)
  | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ ->
      ()

(* Records the store-word stream [f] drives through [heap]'s bus. *)
let record_words heap f =
  let words = ref [] in
  Wsp_events.Bus.with_subscriber (Pheap.bus heap)
    (fun ev -> store_words ev (fun a -> words := a :: !words))
    f;
  Array.of_list (List.rev !words)

let key_of_int i = Int64.of_int (i + 1)

(* The shard request stream: [n] ops of the shard workload's client mix,
   clients taking turns as in one round of the closed loop. *)
let shard_ops sz ~seed n =
  let c =
    Client.create ~mix:shard_mix ~theta:0.99 ~clients:shard_clients
      ~keyspace:sz.keyspace ~seed ()
  in
  Array.init n (fun i -> Client.next c ~client:(i mod shard_clients))

(* A shard-sized FoF heap holding this shard's share of the keyspace. *)
let shard_heap_tree sz =
  let heap =
    Pheap.create ~size:shard_heap ~log_size:Service.default.Service.log_size ()
  in
  let tree = Avl.create heap in
  for i = 0 to (sz.keyspace / shard_count) - 1 do
    Avl.insert tree ~key:(key_of_int (i * shard_count)) ~value:(Int64.of_int i)
  done;
  (heap, tree)

let apply_op tree (op : Client.op) =
  match op with
  | Client.Lookup k -> ignore (Avl.find tree k)
  | Client.Insert (k, v) -> Avl.insert tree ~key:k ~value:v
  | Client.Delete k -> ignore (Avl.delete tree k)

(* The store-word stream of the selected workload's operation mix, from
   a heap the benchmark builds itself, plus the NVRAM size it addresses. *)
let workload_stream name sz ~seed =
  match name with
  | "repro" ->
      let d =
        Directory.create ~config:Config.foc_stm ~heap_size:(Units.Size.mib 64)
          ()
      in
      let heap = Directory.heap d in
      let rng = Rng.create ~seed in
      let entries = max 4 (sz.ladder_ops / 200) in
      ( record_words heap (fun () ->
            for _ = 1 to entries do
              Directory.add_entry d rng
            done),
        Nvram.size (Pheap.nvram heap) )
  | "shard" ->
      let heap, tree = shard_heap_tree sz in
      let ops = shard_ops sz ~seed sz.ladder_ops in
      ( record_words heap (fun () -> Array.iter (apply_op tree) ops),
        Nvram.size (Pheap.nvram heap) )
  | _ ->
      let acc = ref [] and size = ref 0 and sub = ref None in
      Checker.run_workload ~txns:sz.clean_txns ~setup_entries:sz.clean_setup
        ~kind:Checker.Hash_table
        ~config:Config.foc_ul ~seed
        ~observe:(fun heap ->
          size := Nvram.size (Pheap.nvram heap);
          sub :=
            Some
              (Wsp_events.Bus.subscribe (Pheap.bus heap) (fun ev ->
                   store_words ev (fun a -> acc := a :: !acc))))
        ~finish:(fun _ -> Option.iter Wsp_events.Bus.unsubscribe !sub)
        ();
      (Array.of_list (List.rev !acc), !size)

(* Enough replays of a recorded stream to time ~200k calls. *)
let reps_for n = max 1 (200_000 / max 1 n)

(* Cache layer: each recorded word as one load and one store. *)
let machine_replay words =
  let h = Hierarchy.create (Platform.core_hierarchy Platform.intel_c5528) in
  let reps = reps_for (2 * Array.length words) in
  let (), dt =
    timed ~layer:"machine" "Hierarchy.load/store" (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun addr ->
              ignore (Hierarchy.load h ~addr);
              ignore (Hierarchy.store h ~addr))
            words
        done)
  in
  ratio (dt *. 1e9) (float_of_int (2 * reps * Array.length words))

(* Word layer: the same stream as Nvram reads and writes; ns and minor
   words per call. *)
let nvram_replay words size =
  let nv = Nvram.create ~size:(Units.Size.bytes size) () in
  let reps = reps_for (2 * Array.length words) in
  let m0 = Gc.minor_words () in
  let (), dt =
    timed ~layer:"nvheap" "Nvram.read_u64/write_u64" (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun addr ->
              let v = Nvram.read_u64 nv ~addr in
              Nvram.write_u64 nv ~addr (Int64.succ v))
            words
        done)
  in
  let calls = float_of_int (2 * reps * Array.length words) in
  (ratio (dt *. 1e9) calls, ratio (Gc.minor_words () -. m0) calls)

let slug = Analyzer.config_slug
(* Msync journals at commit without a log, so it needs transactions too. *)
let transactional (c : Config.t) =
  c.Config.logging <> Config.No_log || c.Config.backend = Config.Msync
let in_tx heap config f = if transactional config then Pheap.with_tx heap f else f ()

let commit_ns n config =
  let heap =
    Pheap.create ~config ~size:(Units.Size.mib 1) ~log_size:(Units.Size.kib 256)
      ()
  in
  let blk = Pheap.alloc heap 64 in
  let (), dt =
    timed ~layer:"nvheap" ~cell:(slug config) "Pheap.with_tx" (fun () ->
        for i = 1 to n do
          Pheap.with_tx heap (fun () ->
              for w = 0 to 3 do
                Pheap.write_u64 heap ~addr:(blk + (8 * w)) (Int64.of_int i)
              done)
        done)
  in
  ratio (dt *. 1e9) (float_of_int n)

let create_ms () =
  median
    (List.init 5 (fun _ ->
         let _, dt =
           timed ~layer:"nvheap" "Pheap.create" (fun () ->
               Pheap.create ~size:shard_heap
                 ~log_size:Service.default.Service.log_size ())
         in
         dt *. 1e3))

let image_base = 4096

(* Save, serialise, validate, adopt at a shifted base and swizzle a
   shard-sized heap: wire MB per host second. Timed once: the swizzle
   alone takes seconds on a full shard heap. *)
let image_mbps sz =
  let heap, _ = shard_heap_tree sz in
  let bytes, dt =
    timed ~layer:"nvheap" "Image round trip" (fun () ->
        let wire = Image.to_bytes (Image.save heap) in
        let image = Image.of_bytes wire in
        let nvram =
          Nvram.create
            ~size:(Units.Size.bytes (image_base + Image.region_len image))
            ()
        in
        let heap' = Image.restore_at image ~nvram ~base:image_base () in
        ignore (Avl.attach_relocated heap' ~delta:image_base);
        Bytes.length wire)
  in
  ratio (float_of_int bytes /. 1e6) dt

let dir_insert_us sz ~seed config =
  let d = Directory.create ~config ~heap_size:(Units.Size.mib 24) () in
  let rng = Rng.create ~seed in
  let n = max 4 (sz.ladder_ops / 200) in
  let (), dt =
    timed ~layer:"store" ~cell:(slug config) "Directory.add_entry" (fun () ->
        for _ = 1 to n do
          Directory.add_entry d rng
        done)
  in
  ratio (dt *. 1e6) (float_of_int n)

let hash_op_ns sz ~seed config =
  let heap =
    Pheap.create ~config ~size:(Units.Size.mib 2) ~log_size:(Units.Size.kib 256)
      ()
  in
  let table = Hash_table.create ~buckets:1024 heap in
  for i = 0 to 511 do
    in_tx heap config (fun () ->
        Hash_table.insert table ~key:(key_of_int i) ~value:(Int64.of_int i))
  done;
  let rng = Rng.create ~seed in
  let n = max 64 (sz.ladder_ops / 4) in
  let (), dt =
    timed ~layer:"store" ~cell:(slug config) "Hash_table ops" (fun () ->
        for i = 1 to n do
          let key = key_of_int (Rng.int rng 1024) in
          in_tx heap config (fun () ->
              match i mod 4 with
              | 0 -> Hash_table.insert table ~key ~value:(Int64.of_int i)
              | 1 -> ignore (Hash_table.delete table key)
              | _ -> ignore (Hash_table.find table key))
        done)
  in
  ratio (dt *. 1e9) (float_of_int n)

(* AVL ops on the shard request stream: ns, minor words and bus memory
   events per op. *)
let avl_ops sz ~seed =
  let ops = shard_ops sz ~seed sz.ladder_ops in
  let n = float_of_int (Array.length ops) in
  let _, tree = shard_heap_tree sz in
  let m0 = Gc.minor_words () in
  let (), dt =
    timed ~layer:"store" "Avl find/insert/delete" (fun () ->
        Array.iter (apply_op tree) ops)
  in
  let minor = Gc.minor_words () -. m0 in
  let heap, tree = shard_heap_tree sz in
  let mem = ref 0 in
  Wsp_events.Bus.with_subscriber (Pheap.bus heap)
    (fun (ev : Event.t) ->
      match ev with
      | Event.Mem _ -> incr mem
      | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
    (fun () -> Array.iter (apply_op tree) ops);
  (ratio (dt *. 1e9) n, ratio minor n, ratio (float_of_int !mem) n)

let failure_cycle_ms ~seed =
  median
    (List.init 3 (fun i ->
         let _, dt =
           timed ~layer:"core" "System.run_failure_cycle" (fun () ->
               let sys =
                 System.create ~memory:(Units.Size.mib 1) ~seed:(seed + i) ()
               in
               System.run_failure_cycle sys)
         in
         dt *. 1e3))

let client_route_ns sz ~seed =
  let n = 10 * sz.ladder_ops in
  let c =
    Client.create ~mix:shard_mix ~theta:0.99 ~clients:shard_clients
      ~keyspace:sz.keyspace ~seed ()
  in
  let keys = Array.make n 0L in
  let (), client_s =
    timed ~layer:"shard" "Client.next" (fun () ->
        for i = 0 to n - 1 do
          keys.(i) <- Client.key (Client.next c ~client:(i mod shard_clients))
        done)
  in
  let router = Router.create ~shards:shard_count () in
  let (), route_s =
    timed ~layer:"shard" "Router.shard_of_key" (fun () ->
        Array.iter (fun k -> ignore (Router.shard_of_key router k)) keys)
  in
  let n = float_of_int n in
  (ratio (client_s *. 1e9) n, ratio (route_s *. 1e9) n)

(* Record time and detection-only time of every convicted cell. *)
let check_probe sz ~seed =
  (* A cell that raises is already a finding of the witness phase. *)
  let probe f = List.filter_map (fun c -> guard (ref []) ~seed "" (f c)) in
  let record =
    probe
      (fun ((kind, config) as c) () ->
        let _, dt =
          timed ~layer:"check" ~cell:(cell_id c) "Checker.record_workload"
            (fun () ->
              Checker.record_workload ~txns:sz.conv_txns
                ~setup_entries:sz.conv_setup ~fault:Checker.Broken_fences ~kind
                ~config ~seed ())
        in
        dt *. 1e3)
      convicted_cells
  in
  let detect =
    probe
      (fun ((kind, config) as c) () ->
        let _, dt =
          timed ~layer:"check" ~cell:(cell_id c) "Checker.check ~shrink:false"
            (fun () ->
              Checker.check ~jobs:1 ~points:sz.conv_points ~txns:sz.conv_txns
                ~setup_entries:sz.conv_setup ~fault:Checker.Broken_fences
                ~shrink:false ~kind ~config ~seed ())
        in
        dt)
      convicted_cells
  in
  (median record, median detect)

(* Rules.analyze alone over recordings of the whole lint registry. *)
let analyze_probe sz ~seed =
  let recordings =
    List.filter_map
      (fun (w : Analyzer.workload) ->
        let tr = Trace.create () and out = ref None in
        (* A workload that raises is already a finding of the lint. *)
        guard (ref []) ~seed w.name (fun () ->
            w.run ~fault:Checker.No_fault ~txns:sz.lint_txns ~seed
              ~observe:(fun heap -> Trace.instrument tr heap)
              ~finish:(fun heap ->
                out := Some (Trace.snapshot tr heap);
                Trace.detach tr);
            (w.config, Option.get !out)))
      Analyzer.registry
  in
  let events =
    List.fold_left
      (fun acc (_, (r : Trace.recording)) -> acc + Array.length r.events)
      0 recordings
  in
  let (), dt =
    timed ~layer:"analysis" "Rules.analyze" (fun () ->
        List.iter
          (fun (config, r) ->
            ignore (Rules.analyze (Rules.default_machine ~config ()) r))
          recordings)
  in
  (float_of_int events, dt)

(* Crules.step over a prepared seeded 4-domain annotation stream. *)
let race_probe sz ~seed =
  let domains = 4 in
  let rng = Rng.create ~seed in
  let items =
    Array.init (5 * sz.ladder_ops) (fun _ ->
        let d = Rng.int rng domains in
        let obj = Int64.of_int (1 + Rng.int rng 61) in
        let sync : Crules.sync =
          match Rng.int rng 16 with
          | 0 | 1 | 2 | 3 -> Write { obj; addr = -1 }
          | 4 | 5 -> Publish { chan = d }
          | 6 | 7 -> Acquire { chan = Rng.int rng domains }
          | 8 | 9 | 10 -> Read { obj }
          | 11 | 12 -> Ack { obj }
          | 13 -> Barrier
          | _ -> Publish { chan = d }
        in
        (d, Crules.Sync sync))
  in
  let (), dt =
    timed ~layer:"analysis" "Crules.step" (fun () ->
        let cs =
          Crules.create (Rules.default_machine ~config:Config.fof ()) ~domains
        in
        Array.iter (fun (domain, item) -> Crules.step cs ~domain item) items;
        ignore (Crules.finish cs))
  in
  ratio (float_of_int (Array.length items)) dt

(* ---- output -------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
             (json_string name) v (json_string unit))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let report_verdict v =
  List.iter (fun n -> say "  %s" n) v.notes;
  say "failed_frac = %.6g ratio (%d of %d operations)"
    (ratio (float_of_int v.failed) (float_of_int v.attempted))
    v.failed v.attempted

let layers =
  [ "machine"; "nvheap"; "store"; "core"; "experiments"; "shard"; "check"; "analysis" ]

let traced_run goldens name sz ~seed ~tamper ~out_dir =
  let setup_passes = setup name in
  let c0 = counters cache_counters in
  let base = run_pass name sz ~seed:(sub_seed seed 0) in
  let cache = deltas c0 (counters cache_counters) in
  Wsp_nvheap.Event_obs.set_enabled true;
  tracing := true;
  let n0 = counters nvheap_counters in
  let traced, _ =
    timed ~layer:"workload" name (fun () ->
        run_pass name sz ~seed:(sub_seed seed 0))
  in
  let nv = deltas n0 (counters nvheap_counters) in
  (* One traced pass of each other workload, so every layer's metrics
     exist whichever workload this run is for. *)
  let others =
    List.filter_map
      (fun w ->
        if w = name then None
        else
          let p, _ =
            timed ~layer:"workload" w (fun () ->
                run_pass w sz ~seed:(sub_seed seed 0))
          in
          Some (w, p))
      workloads
  in
  let pass_of w = if w = name then traced else List.assoc w others in
  let words, size =
    fst (timed "record stream" (fun () -> workload_stream name sz ~seed))
  in
  let access_ns = machine_replay words in
  let word_ns, word_minor = nvram_replay words size in
  let commits =
    List.map
      (fun c -> ("nvheap.commit_ns." ^ slug c, "ns", commit_ns (sz.ladder_ops / 10) c))
      Config.all_backends
  in
  let create = create_ms () in
  let mbps = image_mbps sz in
  let dirs =
    List.map
      (fun c -> ("store.dir_insert_us." ^ slug c, "us", dir_insert_us sz ~seed c))
      [ Config.foc_stm; Config.fof ]
  in
  let hashes =
    List.map
      (fun c -> ("store.hash_op_ns." ^ slug c, "ns", hash_op_ns sz ~seed c))
      Config.all_backends
  in
  let avl_ns, avl_minor, avl_words = avl_ops sz ~seed in
  let cycle = failure_cycle_ms ~seed in
  let client_ns, route_ns = client_route_ns sz ~seed in
  let witness_pass, _ =
    timed ~layer:"workload" "witness" (fun () ->
        witness_phase sz ~seed:(sub_seed seed 0))
  in
  let witnesses = samples_of "witness_s" [ (0, witness_pass) ] in
  let record_ms, detect_s = check_probe sz ~seed:(sub_seed seed 0) in
  let events, analyze_s = analyze_probe sz ~seed:(sub_seed seed 0) in
  let race = race_probe sz ~seed in
  tracing := false;
  Wsp_nvheap.Event_obs.set_enabled false;
  let sample w key = median (samples_of key [ (0, pass_of w) ]) in
  let shard w = sample "shard" w in
  let witness = median witnesses in

  let shrink_s = witness -. detect_s in
  let hits, misses, evictions =
    match cache with [ h; m; e ] -> (h, m, e) | _ -> (0, 0, 0)
  in
  let accesses = hits + misses in
  let selves = self_times !finished in
  let self layer =
    List.fold_left
      (fun acc (s, t) -> if s.layer = layer then acc +. t else acc)
      0.0 selves
  in
  let nvc i = float_of_int (List.nth nv i) in
  let metrics =
    [
      ("machine.access_ns", "ns", access_ns);
      ("machine.accesses", "count", float_of_int accesses);
      ( "machine.miss_rate",
        "ratio",
        ratio (float_of_int misses) (float_of_int accesses) );
      ("machine.evictions", "count", float_of_int evictions);
      ( "machine.host_ns_per_access",
        "ns",
        ratio (base.wall *. 1e9) (float_of_int accesses) );
      ("nvheap.word_ns", "ns", word_ns);
      ("nvheap.word_minor_words", "words", word_minor);
      ("nvheap.word_amp", "ratio", ratio word_ns access_ns);
    ]
    @ commits
    @ [
        ("nvheap.commits", "count", nvc 0);
        ("nvheap.aborts", "count", nvc 1);
        ("nvheap.log_appends", "count", nvc 2);
        ("nvheap.fences", "count", nvc 3);
        ("nvheap.create_ms", "ms", create);
        ("nvheap.image_mbps", "MB/s", mbps);
      ]
    @ dirs @ hashes
    @ [
        ("store.avl_op_ns", "ns", avl_ns);
        ("store.op_minor_words", "words", avl_minor);
        ("store.words_per_op", "count", avl_words);
        ("store.amp", "ratio", ratio avl_ns word_ns);
        ("core.failure_cycle_ms", "ms", cycle);
        ("experiments.table1_s", "s", sample "repro" "table1_s");
        ("experiments.figure5_s", "s", sample "repro" "figure5_s");
        ("experiments.protocol_s", "s", sample "repro" "protocol_s");
        ("experiments.table1_err", "ratio", sample "repro" "table1_err");
        ("shard.client_ns", "ns", client_ns);
        ("shard.route_ns", "ns", route_ns);
        ( "shard.request_amp",
          "ratio",
          ratio (ratio ((pass_of "shard").wall *. 1e9) (shard "served")) avl_ns );
        ("shard.served", "count", shard "served");
        ("shard.shed", "count", shard "shed");
        ("shard.crash_shed", "count", shard "crash_shed");
        ("shard.keys_moved", "count", shard "keys_moved");
        ("shard.image_bytes", "bytes", shard "image_bytes");
        ( "shard.image_delta_ratio",
          "ratio",
          ratio (shard "image_deltas") (shard "keys_moved") );
        ("check.record_ms", "ms", record_ms);
        ("check.detect_s", "s", detect_s);
        ("check.shrink_s", "s", shrink_s);
        ("check.witness_s", "s", witness);
        ("check.witness_over_detect", "ratio", ratio witness detect_s);
        ("analysis.analyze_events_per_s", "1/s", ratio events analyze_s);
        ( "analysis.record_share",
          "ratio",
          Float.max 0.0 (1.0 -. ratio analyze_s (sample "verify" "lint_s")) );
        ("analysis.race_events_per_s", "1/s", race);
        ("analysis.lint_events_per_s", "1/s", sample "verify" "lint_events_per_s");
      ]
    @ List.map (fun l -> (l ^ ".self_s", "s", self l)) layers
    @ [ ("bench.trace_overhead", "ratio", ratio traced.wall base.wall) ]
  in
  let path =
    Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" name seed)
  in
  write_trace path;
  say "trace: %s (%d spans; open it in Perfetto)" path (List.length !finished);
  List.iter (fun l -> say "self time %-12s %.4f s" l (self l)) layers;
  let verdicts =
    judge goldens name smoke ~seed:dev_seed ~tamper setup_passes
    :: List.map
         (fun (w, p) -> judge goldens w sz ~seed ~tamper [ (0, p) ])
         (((name, base) :: (name, traced) :: others) @ [ ("witness", witness_pass) ])
  in
  let v = combine verdicts in
  report_verdict v;
  print_result ~correct:v.correct ~attempted:v.attempted ~failed:v.failed metrics;
  v.correct

let untraced_run goldens name sz ~seed ~seconds ~tamper =
  let setup_passes, passes = measure name sz ~seed ~seconds in
  (* Shrinking runs once, after the timed passes: its time depends on
     the input too strongly to gate (see README.md), so it is reported
     by name and checked by digest, but not folded into pass_s. *)
  let witness =
    if name = "verify" then
      [ ("witness", witness_phase sz ~seed:(sub_seed seed 0)) ]
    else []
  in
  let v =
    combine
      (judge goldens name smoke ~seed:dev_seed ~tamper setup_passes
      :: judge goldens name sz ~seed ~tamper passes
      :: List.map
           (fun (w, p) -> judge goldens w sz ~seed ~tamper [ (0, p) ])
           witness)
  in
  let walls = List.map (fun (_, p) -> p.wall) passes in
  let rates = List.map (fun (_, p) -> ratio p.work p.work_time) passes in
  let pass_s = median walls and work_per_s = median rates in
  let setup_s = median (List.map (fun (_, p) -> p.wall) setup_passes) in
  let n = List.length passes in
  say "%s: %d passes, seed %d (%s sizes)" name n seed sz.label;
  say "setup walls (s): %s"
    (String.concat " "
       (List.map (fun (_, p) -> Printf.sprintf "%.3f" p.wall) setup_passes));
  say "pass walls (s): %s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  say "pass work/s: %s"
    (String.concat " " (List.map (Printf.sprintf "%.1f") rates));
  let headline what v unit =
    say "%s = %.4g %s (median of %d passes; fastest %.4g s)" what v unit n
      (List.fold_left Float.min infinity walls)
  in
  (match name with
  | "repro" -> headline "repro_s" pass_s "s"
  | "shard" -> headline "shard_req_per_s" work_per_s "req/s"
  | _ ->
      let w = samples_of "witness_s" (List.map (fun (_, p) -> (0, p)) witness) in
      headline "check_points_per_s" work_per_s "points/s";
      say "witness_s = %.4f s (median, n=%d%s)" (median w) (List.length w)
        (match tail w with
        | Some (p, x) -> Printf.sprintf ", p%g = %.4f s" p x
        | None -> "; no percentile has 10 samples beyond it yet");
      say "lint_events_per_s = %.1f events/s (median of %d)"
        (median (samples_of "lint_events_per_s" passes)) n);
  say "heap_peak_mb = %.2f MB" (heap_peak_mb ());
  report_verdict v;
  print_result ~correct:v.correct ~attempted:v.attempted ~failed:v.failed
    [
      ("setup_s", "s", setup_s);
      ("pass_s", "s", pass_s);
      ("work_per_s", "1/s", work_per_s);
      ("heap_peak_mb", "MB", heap_peak_mb ());
    ];
  v.correct

let usage () =
  prerr_endline
    "usage: wspbench.exe --workload repro|shard|verify --seed N --seconds S \
     --trace 0|1 [--smoke] [--tamper] [--record-goldens] [--goldens FILE] \
     [--out-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and smoke_mode = ref false and tamper = ref false in
  let record = ref false in
  let goldens = ref "perfbench/goldens.txt" and out_dir = ref "perfbench/out" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s -> seconds := s | None -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--tamper" :: rest -> tamper := true; parse rest
    | "--record-goldens" :: rest -> record := true; parse rest
    | "--goldens" :: f :: rest -> goldens := f; parse rest
    | "--out-dir" :: d :: rest -> out_dir := d; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload workloads) then usage ();
  Parallel.set_jobs 1;
  let sz = if !smoke_mode then smoke else full in
  if !record then
    List.iter
      (fun w ->
        (* Runs use the witness phase once, on pass 0's inputs. *)
        for k = 0 to (if w = "witness" then 0 else golden_passes - 1) do
          let p = run_pass w sz ~seed:(sub_seed seed k) in
          say "%s %s %d %d %s" w sz.label seed k p.digest
        done)
      (if !workload = "verify" then [ "verify"; "witness" ] else [ !workload ])
  else begin
    let goldens = load_goldens !goldens in
    let ok =
      if !trace then begin
        if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
        traced_run goldens !workload sz ~seed ~tamper:!tamper ~out_dir:!out_dir
      end
      else
        untraced_run goldens !workload sz ~seed ~seconds:!seconds ~tamper:!tamper
    in
    exit (if ok then 0 else 1)
  end
