(* Tests for wsp_nvheap: NVRAM crash semantics, the allocator, the
   torn-tolerant raw log, transactions with crash injection, and the
   heap facade. *)

open Wsp_sim
open Wsp_nvheap

let mk_nvram ?(size = Units.Size.kib 256) () = Nvram.create ~size ()

(* --- Nvram ---------------------------------------------------------------- *)

let nvram_tests =
  [
    Alcotest.test_case "read your writes" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:128 0xDEADBEEFL;
        Alcotest.(check int64) "value" 0xDEADBEEFL (Nvram.read_u64 nv ~addr:128));
    Alcotest.test_case "bytes round-trip" `Quick (fun () ->
        let nv = mk_nvram () in
        let data = Bytes.of_string "whole-system persistence" in
        Nvram.write_bytes nv ~addr:1000 data;
        Alcotest.(check bytes) "round trip" data
          (Nvram.read_bytes nv ~addr:1000 ~len:(Bytes.length data)));
    Alcotest.test_case "unflushed writes do not reach the backing store" `Quick
      (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:0 42L;
        Alcotest.(check int64) "backing still zero" 0L (Nvram.peek_u64 nv ~addr:0);
        Alcotest.(check bool) "line dirty" true (Nvram.dirty_bytes nv > 0));
    Alcotest.test_case "crash loses dirty data" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:0 42L;
        Nvram.crash nv;
        Alcotest.(check int64) "gone" 0L (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int) "nothing dirty" 0 (Nvram.dirty_bytes nv));
    Alcotest.test_case "clflush makes one line durable" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:64 7L;
        Nvram.write_u64 nv ~addr:256 9L;
        Nvram.clflush nv ~addr:64;
        Nvram.crash nv;
        Alcotest.(check int64) "flushed survives" 7L (Nvram.read_u64 nv ~addr:64);
        Alcotest.(check int64) "other lost" 0L (Nvram.read_u64 nv ~addr:256));
    Alcotest.test_case "wbinvd makes everything durable" `Quick (fun () ->
        let nv = mk_nvram () in
        for i = 0 to 63 do
          Nvram.write_u64 nv ~addr:(i * 8) (Int64.of_int i)
        done;
        Nvram.wbinvd nv;
        Nvram.crash nv;
        for i = 0 to 63 do
          Alcotest.(check int64) "survives" (Int64.of_int i)
            (Nvram.read_u64 nv ~addr:(i * 8))
        done);
    Alcotest.test_case "non-temporal stores need a fence to be durable" `Quick
      (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64_nt nv ~addr:0 1L;
        Alcotest.(check int) "pending" 8 (Nvram.pending_nt_bytes nv);
        Nvram.write_u64_nt nv ~addr:8 2L;
        Nvram.fence nv;
        Nvram.write_u64_nt nv ~addr:16 3L;  (* never fenced *)
        Nvram.crash nv;
        Alcotest.(check int64) "fenced 1" 1L (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int64) "fenced 2" 2L (Nvram.read_u64 nv ~addr:8);
        Alcotest.(check int64) "unfenced lost" 0L (Nvram.read_u64 nv ~addr:16));
    Alcotest.test_case "nt store preserves other dirty bytes of the line" `Quick
      (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:0 11L;  (* cached, dirty *)
        Nvram.write_u64_nt nv ~addr:8 22L;  (* same line: flushes it first *)
        Nvram.fence nv;
        Nvram.crash nv;
        Alcotest.(check int64) "cached neighbour survived" 11L
          (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int64) "nt value" 22L (Nvram.read_u64 nv ~addr:8));
    Alcotest.test_case "clock accumulates and resets" `Quick (fun () ->
        let nv = mk_nvram () in
        ignore (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check bool) "charged" true Time.(Nvram.clock nv > Time.zero);
        Nvram.reset_clock nv;
        Alcotest.(check bool) "reset" true (Time.equal (Nvram.clock nv) Time.zero));
    Alcotest.test_case "out-of-bounds access rejected" `Quick (fun () ->
        let nv = mk_nvram ~size:(Units.Size.kib 1) () in
        Alcotest.(check bool) "raises" true
          (try
             Nvram.write_u64 nv ~addr:1020 1L;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "eviction persists data without an explicit flush" `Quick
      (fun () ->
        (* Write far more lines than the hierarchy can hold: early lines
           must have been written back to the backing store. *)
        let nv = Nvram.create ~size:(Units.Size.mib 64) () in
        let lines = 400_000 in
        for i = 0 to lines - 1 do
          Nvram.write_u64 nv ~addr:(i * 64) (Int64.of_int i)
        done;
        Alcotest.(check bool) "line 0 reached backing" true
          (Int64.equal (Nvram.peek_u64 nv ~addr:0) 0L
          && Nvram.dirty_bytes nv < lines * 64));
  ]

let nvram_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"persistent image = writes that were flushed or evicted"
         ~count:50
         QCheck2.Gen.(list_size (int_range 1 100) (pair (int_range 0 500) (int_range 0 1)))
         (fun ops ->
           let nv = mk_nvram () in
           let model = Hashtbl.create 64 in
           List.iteri
             (fun i (slot, flush) ->
               let addr = slot * 8 in
               let v = Int64.of_int i in
               Nvram.write_u64 nv ~addr v;
               Hashtbl.replace model addr (v, flush = 1);
               if flush = 1 then Nvram.clflush nv ~addr)
             ops;
           Nvram.crash nv;
           (* Every write whose last version was flushed must be visible. *)
           Hashtbl.fold
             (fun addr (v, flushed) ok ->
               ok
               &&
               if flushed then Int64.equal (Nvram.read_u64 nv ~addr) v
               else true)
             model true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"wbinvd then crash preserves all writes"
         ~count:50
         QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 500))
         (fun slots ->
           let nv = mk_nvram () in
           List.iteri
             (fun i slot -> Nvram.write_u64 nv ~addr:(slot * 8) (Int64.of_int i))
             slots;
           let expected =
             List.mapi (fun i slot -> (slot * 8, Int64.of_int i)) slots
             |> List.rev
             |> List.fold_left
                  (fun acc (addr, v) ->
                    if List.mem_assoc addr acc then acc else (addr, v) :: acc)
                  []
           in
           Nvram.wbinvd nv;
           Nvram.crash nv;
           List.for_all
             (fun (addr, v) -> Int64.equal (Nvram.read_u64 nv ~addr) v)
             expected));
  ]

(* Satellite: randomized fence/crash semantics. The invariant the whole
   flush-on-commit story rests on: a non-temporal store is durable iff
   some fence ran after it (and before the crash). *)
let fence_crash_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"nt stores survive a crash iff fenced before it" ~count:100
         QCheck2.Gen.(
           list_size (int_range 1 80) (pair (int_range 0 400) (int_range 0 3)))
         (fun ops ->
           let nv = mk_nvram () in
           (* Replay the op stream against a model that moves values from
              [pending] to [drained] at each fence. *)
           let drained = Hashtbl.create 64 and pending = Hashtbl.create 64 in
           List.iteri
             (fun i (slot, fence) ->
               let addr = slot * 8 in
               let v = Int64.of_int (i + 1) in
               Nvram.write_u64_nt nv ~addr v;
               Hashtbl.replace pending addr v;
               if fence = 0 then begin
                 Nvram.fence nv;
                 Hashtbl.iter (Hashtbl.replace drained) pending;
                 Hashtbl.reset pending
               end)
             ops;
           Nvram.crash nv;
           let expected addr =
             match Hashtbl.find_opt drained addr with Some v -> v | None -> 0L
           in
           let all_addrs = Hashtbl.create 64 in
           List.iter (fun (slot, _) -> Hashtbl.replace all_addrs (slot * 8) ()) ops;
           Hashtbl.fold
             (fun addr () ok ->
               ok && Int64.equal (Nvram.read_u64 nv ~addr) (expected addr))
             all_addrs true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"unfenced nt stores never leak into the persistent image"
         ~count:100
         QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 400))
         (fun slots ->
           let nv = mk_nvram () in
           List.iteri
             (fun i slot -> Nvram.write_u64_nt nv ~addr:(slot * 8) (Int64.of_int (i + 1)))
             slots;
           (* No fence at all: the backing store must still be zeros. *)
           let img = Nvram.persistent_image nv in
           Nvram.crash nv;
           List.for_all
             (fun slot ->
               Int64.equal (Bytes.get_int64_le img (slot * 8)) 0L
               && Int64.equal (Nvram.read_u64 nv ~addr:(slot * 8)) 0L)
             slots));
  ]

(* --- Alloc ---------------------------------------------------------------- *)

let mk_alloc ?(len = Units.Size.kib 8) () =
  let nv = mk_nvram () in
  (nv, Alloc.create nv ~base:0 ~len)

let alloc_tests =
  [
    Alcotest.test_case "allocations are aligned and disjoint" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p1 = Alloc.alloc a 24 in
        let p2 = Alloc.alloc a 100 in
        Alcotest.(check int) "aligned 1" 0 (p1 mod 8);
        Alcotest.(check int) "aligned 2" 0 (p2 mod 8);
        Alcotest.(check bool) "disjoint" true
          (p2 >= p1 + 24 || p1 >= p2 + 104));
    Alcotest.test_case "free and reuse" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p1 = Alloc.alloc a 64 in
        Alloc.free a p1;
        let p2 = Alloc.alloc a 64 in
        Alcotest.(check int) "reused" p1 p2);
    Alcotest.test_case "payload_size reports the rounded size" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p = Alloc.alloc a 20 in
        Alcotest.(check int) "rounded" 24 (Alloc.payload_size a p));
    Alcotest.test_case "double free rejected" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p = Alloc.alloc a 16 in
        Alloc.free a p;
        Alcotest.(check bool) "raises" true
          (try
             Alloc.free a p;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "out of memory raises" `Quick (fun () ->
        let _, a = mk_alloc ~len:256 () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Alloc.alloc a 1024);
             false
           with Out_of_memory -> true));
    Alcotest.test_case "coalescing lets a large block come back" `Quick
      (fun () ->
        let _, a = mk_alloc ~len:1024 () in
        (* Fill the region with small blocks, free them newest-first so
           each free coalesces with its right neighbour, then allocate
           one large block. *)
        let ps = List.init 8 (fun _ -> Alloc.alloc a 64) in
        List.iter (Alloc.free a) (List.rev ps);
        let big = Alloc.alloc a 700 in
        Alcotest.(check bool) "fits" true (big > 0));
    Alcotest.test_case "accounting adds up" `Quick (fun () ->
        let _, a = mk_alloc ~len:1024 () in
        let _ = Alloc.alloc a 64 in
        let _ = Alloc.alloc a 128 in
        Alcotest.(check int) "allocated" (64 + 128) (Alloc.allocated_bytes a);
        Alcotest.(check bool) "invariants" true
          (Alloc.check_invariants a = Ok ()));
    Alcotest.test_case "recover rebuilds the free index after a flushed crash"
      `Quick (fun () ->
        let nv, a = mk_alloc () in
        let p1 = Alloc.alloc a 64 in
        let _p2 = Alloc.alloc a 64 in
        Alloc.free a p1;
        Nvram.wbinvd nv;
        Nvram.crash nv;
        let a' = Alloc.attach nv ~base:0 ~len:(Units.Size.kib 8) in
        Alcotest.(check bool) "invariants hold" true
          (Alloc.check_invariants a' = Ok ());
        Alcotest.(check int) "allocated bytes match" 64 (Alloc.allocated_bytes a');
        (* The freed block is allocatable again. *)
        let p3 = Alloc.alloc a' 64 in
        Alcotest.(check int) "reuses the freed block" p1 p3);
    Alcotest.test_case "iter_allocated visits exactly the live blocks" `Quick
      (fun () ->
        let _, a = mk_alloc () in
        let p1 = Alloc.alloc a 16 in
        let p2 = Alloc.alloc a 32 in
        Alloc.free a p1;
        let seen = ref [] in
        Alloc.iter_allocated a (fun ~addr ~size -> seen := (addr, size) :: !seen);
        Alcotest.(check (list (pair int int))) "live" [ (p2, 32) ] !seen);
  ]

let alloc_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"live allocations never overlap" ~count:100
         QCheck2.Gen.(list_size (int_range 1 60) (int_range (-30) 120))
         (fun ops ->
           (* Positive n: allocate n bytes; negative: free the oldest
              live allocation. *)
           let _, a = mk_alloc ~len:(Units.Size.kib 16) () in
           let live = ref [] in
           List.iter
             (fun n ->
               if n > 0 then (
                 match Alloc.alloc a n with
                 | p -> live := !live @ [ (p, (n + 7) / 8 * 8) ]
                 | exception Out_of_memory -> ())
               else
                 match !live with
                 | [] -> ()
                 | (p, _) :: rest ->
                     Alloc.free a p;
                     live := rest)
             ops;
           let rec disjoint = function
             | [] -> true
             | (p, n) :: rest ->
                 List.for_all (fun (q, m) -> q >= p + n || p >= q + m) rest
                 && disjoint rest
           in
           disjoint !live && Alloc.check_invariants a = Ok ()));
  ]

(* --- Rawlog ---------------------------------------------------------------- *)

let mk_log ?(len = 4096) () =
  let nv = mk_nvram () in
  (nv, Rawlog.create nv ~base:0 ~len)

let rawlog_tests =
  [
    Alcotest.test_case "append and scan round-trip" `Quick (fun () ->
        let _, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 10L; 20L |];
        Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| -1L |];
        match Rawlog.scan log with
        | [ (1, a); (2, b) ] ->
            Alcotest.(check (array int64)) "first" [| 10L; 20L |] a;
            Alcotest.(check (array int64)) "second" [| -1L |] b
        | records ->
            Alcotest.failf "expected 2 records, got %d" (List.length records));
    Alcotest.test_case "truncate empties the log" `Quick (fun () ->
        let _, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        Rawlog.truncate log ~mode:Rawlog.Durable;
        Alcotest.(check int) "empty" 0 (List.length (Rawlog.scan log));
        Alcotest.(check int) "head reset" 0 (Rawlog.used_words log));
    Alcotest.test_case "records appended after truncation are visible" `Quick
      (fun () ->
        let _, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        Rawlog.truncate log ~mode:Rawlog.Durable;
        Rawlog.append log ~mode:Rawlog.Durable ~kind:3 [| 9L |];
        match Rawlog.scan log with
        | [ (3, [| 9L |]) ] -> ()
        | _ -> Alcotest.fail "stale records leaked through the generation");
    Alcotest.test_case "durable appends survive a crash; cached do not" `Quick
      (fun () ->
        let nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        Rawlog.append log ~mode:Rawlog.Cached ~kind:2 [| 2L |];
        Nvram.crash nv;
        let log' = Rawlog.attach nv ~base:0 ~len:4096 in
        match Rawlog.scan log' with
        | [ (1, [| 1L |]) ] -> ()
        | records ->
            Alcotest.failf "expected only the durable record, got %d"
              (List.length records));
    Alcotest.test_case "a torn record stops the scan" `Quick (fun () ->
        let nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        (* Hand-corrupt the second record: write only its header word
           with the current generation, leaving the payload stale. *)
        let gen = Rawlog.generation log in
        let header =
          Int64.logor (Int64.shift_left (Int64.of_int ((7 lsl 24) lor 2)) 16)
            (Int64.of_int gen)
        in
        Nvram.write_u64 nv ~addr:(8 * 4) header;
        Nvram.fence nv;
        (match Rawlog.scan log with
        | [ (1, _) ] -> ()
        | records ->
            Alcotest.failf "torn record leaked: %d records" (List.length records)));
    Alcotest.test_case "scan_persistent sees only flushed state" `Quick
      (fun () ->
        let _nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Cached ~kind:1 [| 5L |];
        Alcotest.(check int) "cached scan sees it" 1
          (List.length (Rawlog.scan log));
        Alcotest.(check int) "persistent scan does not" 0
          (List.length (Rawlog.scan_persistent log)));
    Alcotest.test_case "log full raises" `Quick (fun () ->
        let _, log = mk_log ~len:64 () in
        Alcotest.(check bool) "raises" true
          (try
             for _ = 1 to 10 do
               Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 0L |]
             done;
             false
           with Rawlog.Log_full -> true));
    Alcotest.test_case "attach recomputes the head" `Quick (fun () ->
        let nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L; 2L |];
        let used = Rawlog.used_words log in
        let log' = Rawlog.attach nv ~base:0 ~len:4096 in
        Alcotest.(check int) "head" used (Rawlog.used_words log');
        Rawlog.append log' ~mode:Rawlog.Durable ~kind:2 [| 3L |];
        Alcotest.(check int) "both records" 2 (List.length (Rawlog.scan log')));
  ]

let rawlog_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"persistent view of a cached log is a prefix of the appends"
         ~count:60
         QCheck2.Gen.(
           pair
             (list_size (int_range 1 30) (int_range (-500) 500))
             (list_size (int_range 0 200) (int_range 0 400)))
         (fun (payloads, traffic) ->
           (* Cached-mode appends are durable only via incidental cache
              evictions; whatever the crash-surviving scan sees must be a
              prefix of what was appended (the generation tags stop it at
              the first torn/unpersisted record). *)
           let nv = mk_nvram () in
           let log = Rawlog.create nv ~base:0 ~len:8192 in
           let appended =
             List.mapi
               (fun i v -> (1 + (i mod 5), [| Int64.of_int v |]))
               payloads
           in
           List.iter
             (fun (kind, values) -> Rawlog.append log ~mode:Rawlog.Cached ~kind values)
             appended;
           (* Unrelated traffic forces arbitrary evictions. *)
           List.iter
             (fun slot -> Nvram.write_u64 nv ~addr:(16384 + (slot * 8)) 1L)
             traffic;
           let persisted = Rawlog.scan_persistent log in
           let rec is_prefix xs ys =
             match (xs, ys) with
             | [], _ -> true
             | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
             | _ :: _, [] -> false
           in
           let as_cmp = List.map (fun (k, v) -> (k, Array.to_list v)) in
           is_prefix (as_cmp persisted) (as_cmp appended)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"scan returns exactly what was appended"
         ~count:100
         QCheck2.Gen.(
           list_size (int_range 0 20)
             (pair (int_range 0 255) (list_size (int_range 0 4) (int_range (-1000) 1000))))
         (fun records ->
           let _, log = mk_log ~len:65536 () in
           List.iter
             (fun (kind, values) ->
               Rawlog.append log ~mode:Rawlog.Durable ~kind
                 (Array.of_list (List.map Int64.of_int values)))
             records;
           let scanned =
             List.map
               (fun (kind, values) -> (kind, Array.to_list (Array.map Int64.to_int values)))
               (Rawlog.scan log)
           in
           scanned = records));
  ]

(* Satellite: torn-append enumeration. The modelled hardware (like x86)
   persists aligned 8-byte stores atomically, so the honest crash
   granularity inside an append is the word, not the byte: a power
   failure cannot leave half of an aligned store behind. We therefore
   materialise, for every word-prefix of a record's stores, the state in
   which exactly that prefix reached NVRAM, and require the scan to stop
   cleanly at the last complete entry. Each log word carries the
   generation tag in its low bits, so any missing word un-validates the
   whole record — which is what makes prefix enumeration exhaustive. *)
let rawlog_torn_tests =
  (* Returns [base image; full image; ascending word indices written by
     the second append]. *)
  let two_appends () =
    let nv, log = mk_log () in
    Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 11L; 22L |];
    let base = Nvram.persistent_image nv in
    Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| 33L; 44L |];
    let full = Nvram.persistent_image nv in
    let words = ref [] in
    for w = (Bytes.length base / 8) - 1 downto 0 do
      if
        not
          (Int64.equal
             (Bytes.get_int64_le base (8 * w))
             (Bytes.get_int64_le full (8 * w)))
      then words := w :: !words
    done;
    (base, full, !words)
  in
  let scan_torn base full words w =
    let torn = Bytes.copy base in
    List.iteri
      (fun i wd ->
        if i < w then
          Bytes.set_int64_le torn (8 * wd) (Bytes.get_int64_le full (8 * wd)))
      words;
    let nv = Nvram.create ~backing:torn ~size:(Units.Size.kib 256) () in
    (nv, Rawlog.attach nv ~base:0 ~len:4096)
  in
  [
    Alcotest.test_case "torn append at every word offset stops the scan" `Quick
      (fun () ->
        let base, full, words = two_appends () in
        let n_words = List.length words in
        Alcotest.(check int) "record footprint (header + 2 tagged words/value)"
          (1 + (2 * 2)) n_words;
        for w = 0 to n_words - 1 do
          let _, log = scan_torn base full words w in
          match Rawlog.scan log with
          | [ (1, [| 11L; 22L |]) ] -> ()
          | records ->
              Alcotest.failf "prefix %d/%d words: got %d records" w n_words
                (List.length records)
        done;
        (* Sanity: the full prefix is a complete record. *)
        let _, log = scan_torn base full words n_words in
        Alcotest.(check int) "complete record scans" 2
          (List.length (Rawlog.scan log)));
    Alcotest.test_case "log stays appendable over a torn tail" `Quick (fun () ->
        let base, full, words = two_appends () in
        let _, log = scan_torn base full words (List.length words - 1) in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:5 [| 7L |];
        match Rawlog.scan log with
        | [ (1, [| 11L; 22L |]); (5, [| 7L |]) ] -> ()
        | records ->
            Alcotest.failf "expected survivor + fresh record, got %d"
              (List.length records));
    Alcotest.test_case "a crash at any event inside an append loses it all"
      `Quick (fun () ->
        (* Same property through the real instrumentation: cut execution
           at every persistency event the append emits (each NT store and
           the trailing fence) and crash. Before the fence has drained,
           nothing of the record may survive. *)
        let exception Cut in
        let events_in_append =
          let nv, log = mk_log () in
          Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
          let n = ref 0 in
          let sub =
            Wsp_events.Bus.subscribe (Nvram.bus nv) (function
              | Event.Mem _ -> incr n
              | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
          in
          Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| 33L; 44L |];
          Wsp_events.Bus.unsubscribe sub;
          !n
        in
        Alcotest.(check int) "events = stores + fence" (1 + (2 * 2) + 1)
          events_in_append;
        for cut = 0 to events_in_append - 1 do
          let nv, log = mk_log () in
          Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
          let n = ref 0 in
          let sub =
            Wsp_events.Bus.subscribe (Nvram.bus nv) (function
              | Event.Mem _ -> if !n >= cut then raise Cut else incr n
              | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
          in
          (try Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| 33L; 44L |]
           with Cut -> ());
          Wsp_events.Bus.unsubscribe sub;
          Nvram.crash nv;
          let log' = Rawlog.attach nv ~base:0 ~len:4096 in
          match Rawlog.scan log' with
          | [ (1, [| 1L |]) ] -> ()
          | records ->
              Alcotest.failf "cut at event %d: %d records survived" cut
                (List.length records)
        done);
  ]

(* --- Txn: commit/abort/recovery with crash injection ----------------------- *)

let mk_txn config =
  let nv = mk_nvram () in
  let log = Rawlog.create nv ~base:0 ~len:(Units.Size.kib 64) in
  (nv, Txn.create ~nvram:nv ~config ~log ())

let data_base = Units.Size.kib 64

let txn_tests =
  [
    Alcotest.test_case "undo: abort rolls back in-place writes" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.write_u64 txn ~addr:data_base 1L;
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 2L;
        Alcotest.(check int64) "visible inside" 2L (Txn.read_u64 txn ~addr:data_base);
        Txn.abort txn;
        Alcotest.(check int64) "rolled back" 1L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "redo: abort discards buffered writes" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_stm in
        Txn.write_u64 txn ~addr:data_base 1L;
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 2L;
        Alcotest.(check int64) "read-your-write" 2L (Txn.read_u64 txn ~addr:data_base);
        Txn.abort txn;
        Alcotest.(check int64) "discarded" 1L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "foc-undo: committed data survives a crash" `Quick
      (fun () ->
        let nv, txn = mk_txn Config.foc_ul in
        Txn.with_tx txn (fun () ->
            Txn.write_u64 txn ~addr:data_base 7L;
            Txn.write_u64 txn ~addr:(data_base + 8) 8L);
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "first" 7L (Txn.read_u64 txn ~addr:data_base);
        Alcotest.(check int64) "second" 8L (Txn.read_u64 txn ~addr:(data_base + 8)));
    Alcotest.test_case "foc-undo: crash mid-transaction rolls back" `Quick
      (fun () ->
        let nv, txn = mk_txn Config.foc_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 1L);
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 99L;
        (* Make the torn in-place write actually reach NVRAM: worst case. *)
        Nvram.clflush nv ~addr:data_base;
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "rolled back to committed" 1L
          (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "foc-redo: committed transactions replay after a crash"
      `Quick (fun () ->
        let nv, txn = mk_txn Config.foc_stm in
        Txn.with_tx txn (fun () ->
            Txn.write_u64 txn ~addr:data_base 5L;
            Txn.write_u64 txn ~addr:(data_base + 8) 6L);
        (* The in-place apply stayed in cache; the crash eats it, the
           redo log resurrects it. *)
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "first" 5L (Txn.read_u64 txn ~addr:data_base);
        Alcotest.(check int64) "second" 6L (Txn.read_u64 txn ~addr:(data_base + 8)));
    Alcotest.test_case "foc-redo: uncommitted transaction leaves no trace"
      `Quick (fun () ->
        let nv, txn = mk_txn Config.foc_stm in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 1L);
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 2L;
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "committed value" 1L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "fof configs lose uncommitted cache state on a bare crash"
      `Quick (fun () ->
        let nv, txn = mk_txn Config.fof_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 42L);
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        (* No WSP flush happened: flush-on-fail makes no promise here. *)
        Alcotest.(check int64) "lost" 0L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "fof configs survive a crash after a WSP flush" `Quick
      (fun () ->
        let nv, txn = mk_txn Config.fof_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 42L);
        Nvram.wbinvd nv;  (* the flush-on-fail save path *)
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "kept" 42L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "counters" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 1L);
        Txn.begin_tx txn;
        Txn.abort txn;
        Alcotest.(check int) "committed" 1 (Txn.committed_count txn);
        Alcotest.(check int) "aborted" 1 (Txn.aborted_count txn));
    Alcotest.test_case "nested begin rejected" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.begin_tx txn;
        Alcotest.(check bool) "raises" true
          (try
             Txn.begin_tx txn;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "with_tx aborts on exception" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.write_u64 txn ~addr:data_base 1L;
        (try
           Txn.with_tx txn (fun () ->
               Txn.write_u64 txn ~addr:data_base 2L;
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check int64) "rolled back" 1L (Txn.read_u64 txn ~addr:data_base);
        Alcotest.(check bool) "no open tx" false (Txn.in_tx txn));
  ]

(* Crash injection: run a random sequence of transactions against both
   the heap and a model, crash at a random point, recover, and check
   that exactly the committed prefix survives (for FoC configs). *)
let txn_crash_prop config =
  let name =
    Printf.sprintf "%s: crash at any point preserves committed state"
      config.Config.name
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:60
       QCheck2.Gen.(
         pair small_int
           (list_size (int_range 1 12)
              (list_size (int_range 1 6) (pair (int_range 0 40) (int_range 0 1000)))))
       (fun (crash_after, txs) ->
         let nv, txn = mk_txn config in
         let model = Hashtbl.create 32 in
         let committed = Hashtbl.create 32 in
         let crash_after = crash_after mod (List.length txs + 1) in
         List.iteri
           (fun i writes ->
             if i < crash_after then begin
               Txn.with_tx txn (fun () ->
                   List.iter
                     (fun (slot, v) ->
                       let addr = data_base + (slot * 8) in
                       Txn.write_u64 txn ~addr (Int64.of_int v);
                       Hashtbl.replace model addr (Int64.of_int v))
                     writes);
               Hashtbl.reset committed;
               Hashtbl.iter (Hashtbl.replace committed) model
             end
             else if i = crash_after then begin
               (* This transaction is in flight at the crash. *)
               Txn.begin_tx txn;
               List.iter
                 (fun (slot, v) ->
                     let addr = data_base + (slot * 8) in
                     Txn.write_u64 txn ~addr (Int64.of_int v))
                 writes
             end)
           txs;
         Nvram.crash nv;
         Txn.on_crash txn;
         Txn.recover txn;
         Hashtbl.fold
           (fun addr v ok ->
             ok && Int64.equal (Txn.read_u64 txn ~addr) v)
           committed true))

(* --- Pheap ------------------------------------------------------------------ *)

let pheap_tests =
  [
    Alcotest.test_case "root pointer round-trips" `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let p = Pheap.alloc heap 64 in
        Pheap.set_root heap p;
        Alcotest.(check int) "root" p (Pheap.root heap));
    Alcotest.test_case "wsp_flush + crash + recover keeps everything" `Quick
      (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let p = Pheap.alloc heap 64 in
        Pheap.write_u64 heap ~addr:p 123L;
        Pheap.set_root heap p;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        Alcotest.(check int) "root survives" p (Pheap.root heap);
        Alcotest.(check int64) "data survives" 123L (Pheap.read_u64 heap ~addr:p));
    Alcotest.test_case "create_in carves a region; addresses respect the base"
      `Quick (fun () ->
        let nv = Nvram.create ~size:(Units.Size.mib 8) () in
        let heap =
          Pheap.create_in ~nvram:nv ~base:4096
            ~len:(Units.Size.mib 8 - 4096)
            ~log_size:(Units.Size.kib 64) ()
        in
        let p = Pheap.alloc heap 64 in
        Alcotest.(check bool) "beyond the log" true (p >= Pheap.heap_base heap);
        Alcotest.(check bool) "heap base beyond base" true
          (Pheap.heap_base heap >= 4096 + 64 + Units.Size.kib 64));
    Alcotest.test_case "attach_in after flushed crash recovers allocations"
      `Quick (fun () ->
        let nv = Nvram.create ~size:(Units.Size.mib 8) () in
        let len = Units.Size.mib 8 - 4096 in
        let heap =
          Pheap.create_in ~nvram:nv ~base:4096 ~len ~log_size:(Units.Size.kib 64) ()
        in
        let p = Pheap.alloc heap 64 in
        Pheap.write_u64 heap ~addr:p 9L;
        Pheap.set_root heap p;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        let heap' =
          Pheap.attach_in ~nvram:nv ~base:4096 ~len ~log_size:(Units.Size.kib 64) ()
        in
        Alcotest.(check int) "root" p (Pheap.root heap');
        Alcotest.(check int64) "data" 9L (Pheap.read_u64 heap' ~addr:p);
        (* The allocator must not hand the same block out again. *)
        let q = Pheap.alloc heap' 64 in
        Alcotest.(check bool) "no overlap" true (q <> p));
    Alcotest.test_case "transactional allocator metadata rolls back" `Quick
      (fun () ->
        let heap =
          Pheap.create ~config:Config.foc_ul ~size:(Units.Size.mib 8) ()
        in
        let before = Alloc.allocated_bytes (Pheap.allocator heap) in
        (try
           Pheap.with_tx heap (fun () ->
               ignore (Pheap.alloc heap 64);
               failwith "abort")
         with Failure _ -> ());
        Alcotest.(check int) "allocation undone" before
          (Alloc.allocated_bytes (Pheap.allocator heap)));
  ]

(* --- The replay tap ------------------------------------------------------- *)

let tap_tests =
  [
    Alcotest.test_case "double attach raises, detach-reattach is fine" `Quick
      (fun () ->
        let nv = mk_nvram () in
        let noop =
          Nvram.
            {
              on_slice = (fun ~addr:_ ~data:_ -> ());
              on_nt = (fun ~addr:_ ~v:_ -> ());
              on_wb = (fun ~line:_ ~data:_ -> ());
              on_drain = (fun () -> ());
            }
        in
        Nvram.set_tap nv (Some noop);
        (match Nvram.set_tap nv (Some noop) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        Nvram.set_tap nv None;
        Nvram.set_tap nv (Some noop));
    Alcotest.test_case "tap ops rebuild the volatile image" `Quick (fun () ->
        (* Apply every op the tap reports to a bytes-level shadow (the
           same state model Replay cursors use: backing + overlay lines
           + WC FIFO) and require the shadow's materialised image to
           equal the NVRAM's own at every fence — the fidelity contract
           the incremental checker rests on. *)
        let nv = mk_nvram ~size:(Units.Size.kib 4) () in
        let size = Nvram.size nv in
        let ls = Nvram.line_size nv in
        let backing = Bytes.create size in
        Nvram.blit_backing nv ~addr:0 ~len:size backing ~dst_off:0;
        let overlay : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
        let wc = Queue.create () in
        let tap =
          Nvram.
            {
              on_slice =
                (fun ~addr ~data ->
                  let line = addr / ls in
                  let buf =
                    match Hashtbl.find_opt overlay line with
                    | Some b -> b
                    | None ->
                        let b = Bytes.sub backing (line * ls) ls in
                        Hashtbl.add overlay line b;
                        b
                  in
                  Bytes.blit data 0 buf (addr mod ls) (Bytes.length data));
              on_nt = (fun ~addr ~v -> Queue.add (addr, v) wc);
              on_wb =
                (fun ~line ~data ->
                  Bytes.blit data 0 backing (line * ls) ls;
                  Hashtbl.remove overlay line);
              on_drain =
                (fun () ->
                  Queue.iter
                    (fun (addr, v) -> Bytes.set_int64_le backing addr v)
                    wc;
                  Queue.clear wc);
            }
        in
        Nvram.set_tap nv (Some tap);
        let shadow_volatile () =
          let img = Bytes.copy backing in
          Hashtbl.iter
            (fun line data -> Bytes.blit data 0 img (line * ls) ls)
            overlay;
          Queue.iter (fun (addr, v) -> Bytes.set_int64_le img addr v) wc;
          img
        in
        let rng = Rng.create ~seed:11 in
        for round = 1 to 20 do
          for _ = 1 to 8 do
            match Rng.int rng 3 with
            | 0 ->
                let len = 1 + Rng.int rng 80 in
                let addr = Rng.int rng (size - len) in
                Nvram.write_bytes nv ~addr
                  (Bytes.make len (Char.chr (Rng.int rng 256)))
            | 1 ->
                Nvram.write_u64_nt nv
                  ~addr:(Rng.int rng (size / 8 - 1) * 8)
                  (Int64.of_int (Rng.int rng 1_000_000))
            | _ -> Nvram.fence nv
          done;
          Nvram.fence nv;
          Alcotest.(check bytes)
            (Printf.sprintf "round %d volatile image" round)
            (Nvram.volatile_image nv) (shadow_volatile ());
          Alcotest.(check bool)
            (Printf.sprintf "round %d accessors match shadow" round)
            true
            (List.length (Nvram.overlay_lines nv) = Hashtbl.length overlay
            && Nvram.pending_nt nv
               = List.rev (Queue.fold (fun acc e -> e :: acc) [] wc))
        done;
        Nvram.wbinvd nv;
        Alcotest.(check bytes) "post-wbinvd persistent image"
          (Nvram.persistent_image nv) backing);
  ]

(* The flat image against the reference state model. A shadow built
   only from the tap's ops (persistent backing + dirty-line overlay + WC
   FIFO, the model the incremental checker replays) plus the documented
   effects of [crash] and [load_backing] must agree with every view the
   NVRAM offers after every step: reads see backing overlaid with dirty
   lines but no undrained NT data; [volatile_image] adds the NT data;
   [persistent_image], [peek_u64] and [blit_backing] see backing alone.
   A two-level hierarchy of 8 + 16 lines keeps evictions frequent. *)

type nv_op =
  | N_write of int * int * int  (* addr, len, byte *)
  | N_word of int * int  (* addr (any alignment), value *)
  | N_nt of int * int
  | N_fence
  | N_clflush of int
  | N_flush_range of int * int
  | N_wbinvd
  | N_crash
  | N_load of int * int * int  (* addr, len, byte *)
  | N_nt_store_fence_crash of int * int  (* word slot, value *)

let tiny_nv_hierarchy =
  let level name bytes assoc lat =
    {
      Wsp_machine.Cache.name;
      size = Units.Size.bytes bytes;
      line_size = 64;
      associativity = assoc;
      hit_latency = Time.ns lat;
    }
  in
  {
    (Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528) with
    Wsp_machine.Hierarchy.levels = [ level "L1" 512 2 1.0; level "L2" 1024 4 4.0 ];
  }

let nv_size = 2048

let gen_nv_op =
  QCheck2.Gen.(
    let addr len = int_range 0 (nv_size - len) in
    frequency
      [
        (4, int_range 1 80 >>= fun len ->
            map2 (fun a b -> N_write (a, len, b)) (addr len) (int_range 0 255));
        (6, map2 (fun a v -> N_word (a, v)) (addr 8) (int_range 1 1_000_000));
        (3, map2 (fun a v -> N_nt (a, v)) (addr 8) (int_range 1 1_000_000));
        (3, pure N_fence);
        (2, map (fun a -> N_clflush a) (addr 1));
        (1, int_range 1 200 >>= fun len ->
            map (fun a -> N_flush_range (a, len)) (addr len));
        (1, pure N_wbinvd);
        (1, pure N_crash);
        (1, int_range 1 150 >>= fun len ->
            map2 (fun a b -> N_load (a, len, b)) (addr len) (int_range 0 255));
        (1, map2 (fun s v -> N_nt_store_fence_crash (s, v))
              (int_range 0 (nv_size / 8 - 1)) (int_range 1 1_000_000));
      ])

let nv_ops_agree (ops, probes) =
  let nv =
    Nvram.create ~hierarchy:tiny_nv_hierarchy ~size:(Units.Size.bytes nv_size) ()
  in
  let ls = Nvram.line_size nv in
  let backing = Bytes.make nv_size '\000' in
  let overlay : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let wc = Queue.create () in
  Nvram.set_tap nv
    (Some
       Nvram.
         {
           on_slice =
             (fun ~addr ~data ->
               let line = addr / ls in
               let buf =
                 match Hashtbl.find_opt overlay line with
                 | Some b -> b
                 | None ->
                     let b = Bytes.sub backing (line * ls) ls in
                     Hashtbl.add overlay line b;
                     b
               in
               Bytes.blit data 0 buf (addr mod ls) (Bytes.length data));
           on_nt = (fun ~addr ~v -> Queue.add (addr, v) wc);
           on_wb =
             (fun ~line ~data ->
               Bytes.blit data 0 backing (line * ls) ls;
               Hashtbl.remove overlay line);
           on_drain =
             (fun () ->
               Queue.iter (fun (addr, v) -> Bytes.set_int64_le backing addr v) wc;
               Queue.clear wc);
         });
  let readable () =
    let img = Bytes.copy backing in
    Hashtbl.iter (fun line data -> Bytes.blit data 0 img (line * ls) ls) overlay;
    img
  in
  let volatile () =
    let img = readable () in
    Queue.iter (fun (addr, v) -> Bytes.set_int64_le img addr v) wc;
    img
  in
  let crash () =
    Nvram.crash nv;
    Hashtbl.reset overlay;
    Queue.clear wc
  in
  let apply = function
    | N_write (addr, len, b) -> Nvram.write_bytes nv ~addr (Bytes.make len (Char.chr b))
    | N_word (addr, v) -> Nvram.write_u64 nv ~addr (Int64.of_int v)
    | N_nt (addr, v) -> Nvram.write_u64_nt nv ~addr (Int64.of_int v)
    | N_fence -> Nvram.fence nv
    | N_clflush addr -> Nvram.clflush nv ~addr
    | N_flush_range (addr, len) -> Nvram.flush_range nv ~addr ~len
    | N_wbinvd -> Nvram.wbinvd nv
    | N_crash -> crash ()
    | N_load (addr, len, b) ->
        Nvram.load_backing nv ~addr (Bytes.make len (Char.chr b));
        Bytes.fill backing addr len (Char.chr b);
        for line = addr / ls to (addr + len - 1) / ls do
          Hashtbl.remove overlay line
        done;
        let keep = Queue.fold (fun acc (a, v) ->
            if a >= addr && a < addr + len then acc else (a, v) :: acc) [] wc in
        Queue.clear wc;
        List.iter (fun e -> Queue.add e wc) (List.rev keep)
    | N_nt_store_fence_crash (slot, v) ->
        (* The NT data must survive: the cached store's line hides it
           from reads, but the fence makes it persistent underneath. *)
        let addr = slot * 8 in
        Nvram.write_u64_nt nv ~addr (Int64.of_int v);
        Nvram.write_u64 nv ~addr:(addr land lnot 63) (Int64.of_int (v + 1));
        Nvram.fence nv;
        crash ()
  in
  let probes = Array.of_list probes in
  List.for_all
    (fun (i, op) ->
      apply op;
      let pa, plen = probes.(i mod Array.length probes) in
      let word = pa land lnot 7 in
      let persistent = Nvram.persistent_image nv in
      let blitted = Bytes.create plen in
      Nvram.blit_backing nv ~addr:pa ~len:plen blitted ~dst_off:0;
      Bytes.equal persistent backing
      && Bytes.equal (Nvram.volatile_image nv) (volatile ())
      && Bytes.equal blitted (Bytes.sub backing pa plen)
      && Int64.equal (Nvram.peek_u64 nv ~addr:word) (Bytes.get_int64_le backing word)
      && Int64.equal (Nvram.peek_u64 nv ~addr:pa) (Bytes.get_int64_le backing pa)
      && Bytes.equal (Nvram.read_bytes nv ~addr:pa ~len:plen)
           (Bytes.sub (readable ()) pa plen)
      && Int64.equal (Nvram.read_u64 nv ~addr:word)
           (Bytes.get_int64_le (readable ()) word)
      && List.length (Nvram.overlay_lines nv) = Hashtbl.length overlay
      && Nvram.pending_nt nv = List.of_seq (Queue.to_seq wc))
    (List.mapi (fun i op -> (i, op)) ops)

let nvram_model_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"flat image agrees with the overlay model at every step"
         ~count:300
         QCheck2.Gen.(
           pair
             (list_size (int_range 1 80) gen_nv_op)
             (list_size (int_range 1 8)
                (int_range 1 100 >>= fun len ->
                 map (fun a -> (a, len)) (int_range 0 (nv_size - len - 8)))))
         nv_ops_agree);
  ]

let suite =
  [
    ("nvheap.nvram", nvram_tests @ nvram_props @ fence_crash_props @ tap_tests
      @ nvram_model_props);
    ("nvheap.alloc", alloc_tests @ alloc_props);
    ("nvheap.rawlog", rawlog_tests @ rawlog_props @ rawlog_torn_tests);
    ( "nvheap.txn",
      txn_tests
      @ [ txn_crash_prop Config.foc_ul; txn_crash_prop Config.foc_stm ] );
    ("nvheap.pheap", pheap_tests);
  ]
