open Wsp_sim

let k_begin = 1
let k_undo = 2
let k_redo = 3
let k_commit = 4
let k_page = 5

(* FoC redo logs are truncated (with data flushes) every this many
   commits, amortising the truncation-time flush the paper describes. *)
let redo_truncate_interval = 64

type tx = {
  txid : int64;
  write_set : (int, int64) Hashtbl.t;
  mutable write_order : int list;  (* newest first; reversed at commit *)
  mutable read_set : int;
  undo_logged : (int, int64) Hashtbl.t;  (* addr -> old value *)
  mutable undo_order : (int * int64) list;  (* newest first *)
  written_lines : (int, unit) Hashtbl.t;
  mutable began_in_log : bool;  (* Begin record written (lazy) *)
}

type event = Event.tx =
  | Begin of int64
  | Commit of { txid : int64; written_lines : int list }
  | Abort of int64

type t = {
  nvram : Nvram.t;
  log : Rawlog.t;
  config : Config.t;
  costs : Config.Costs.costs;
  mutable next_txid : int64;
  mutable active : tx option;
  scratch : tx;  (* reused across transactions to avoid allocation churn *)
  mutable commits_since_truncate : int;
  unflushed : (int, unit) Hashtbl.t;  (* line-aligned addresses (FoC redo) *)
  mutable committed : int;
  mutable aborted : int;
  m_commits : Wsp_obs.Metrics.Counter.t;
  m_aborts : Wsp_obs.Metrics.Counter.t;
}

(* Events — and the sorted write sets [Commit] carries — are built only
   when someone listens. *)
let observed t = Wsp_events.Bus.active (Nvram.bus t.nvram)
let emit t ev = Wsp_events.Bus.publish (Nvram.bus t.nvram) (Event.Tx ev)

(* The msync backend keeps no per-access log but still needs the full
   transactional context: data writes are buffered in tracked dirty
   pages until the page commit. *)
let msync t = t.config.Config.backend = Config.Msync

let log_mode t : Rawlog.mode =
  if Config.is_durable_without_wsp t.config then Rawlog.Durable
  else Rawlog.Cached

let charge_log_words t n =
  Nvram.charge t.nvram (Time.mul t.costs.Config.Costs.log_word_cpu n)

let append t ~kind values =
  charge_log_words t (1 + (2 * Array.length values));
  Rawlog.append t.log ~mode:(log_mode t) ~kind values

(* The Begin record is written lazily, just before the transaction's
   first log record: read-only transactions log nothing at all. *)
let ensure_began t tx =
  if not tx.began_in_log then begin
    tx.began_in_log <- true;
    append t ~kind:k_begin [| tx.txid |]
  end

let fresh_scratch () =
  {
    txid = 0L;
    write_set = Hashtbl.create 64;
    write_order = [];
    read_set = 0;
    undo_logged = Hashtbl.create 64;
    undo_order = [];
    written_lines = Hashtbl.create 64;
    began_in_log = false;
  }

let create ?(costs = Config.Costs.default) ~nvram ~config ~log () =
  {
    nvram;
    log;
    config;
    costs;
    next_txid = 1L;
    active = None;
    scratch = fresh_scratch ();
    commits_since_truncate = 0;
    unflushed = Hashtbl.create 256;
    committed = 0;
    aborted = 0;
    m_commits =
      Wsp_obs.Metrics.counter (Wsp_obs.Metrics.ambient ()) "nvheap.txn.commits";
    m_aborts =
      Wsp_obs.Metrics.counter (Wsp_obs.Metrics.ambient ()) "nvheap.txn.aborts";
  }

let config t = t.config
let nvram t = t.nvram
let log t = t.log
let in_tx t = Option.is_some t.active

let line_base t addr =
  let ls = Nvram.line_size t.nvram in
  addr / ls * ls

let page_base addr = addr / Config.msync_page * Config.msync_page

let begin_tx t =
  if in_tx t then invalid_arg "Txn.begin_tx: transaction already open";
  if t.config.Config.logging = Config.No_log && not (msync t) then ()
  else begin
    Nvram.charge t.nvram t.costs.Config.Costs.tx_begin;
    let txid = t.next_txid in
    if observed t then emit t (Begin txid);
    t.next_txid <- Int64.add txid 1L;
    let tx = t.scratch in
    Hashtbl.clear tx.write_set;
    tx.write_order <- [];
    tx.read_set <- 0;
    Hashtbl.clear tx.undo_logged;
    tx.undo_order <- [];
    Hashtbl.clear tx.written_lines;
    tx.began_in_log <- false;
    t.active <- Some { tx with txid }
  end

let active t =
  match t.active with
  | Some tx -> tx
  | None -> invalid_arg "Txn: no open transaction"

let read_u64 t ~addr =
  match t.active with
  | Some tx when t.config.Config.stm -> begin
      Nvram.charge t.nvram t.costs.Config.Costs.stm_read;
      match Hashtbl.find_opt tx.write_set addr with
      | Some v -> v
      | None ->
          tx.read_set <- tx.read_set + 1;
          Nvram.read_u64 t.nvram ~addr
    end
  | Some tx when msync t -> begin
      (* Buffered page writes must be visible to the writer. *)
      match Hashtbl.find_opt tx.write_set addr with
      | Some v -> v
      | None -> Nvram.read_u64 t.nvram ~addr
    end
  | _ -> Nvram.read_u64 t.nvram ~addr

let undo_log_write t tx ~addr =
  if not (Hashtbl.mem tx.undo_logged addr) then begin
    ensure_began t tx;
    let old = Nvram.read_u64 t.nvram ~addr in
    Hashtbl.add tx.undo_logged addr old;
    tx.undo_order <- (addr, old) :: tx.undo_order;
    append t ~kind:k_undo [| Int64.of_int addr; old |]
  end

let write_u64 t ~addr v =
  match t.active with
  | None -> Nvram.write_u64 t.nvram ~addr v
  | Some tx ->
      if msync t then begin
        (* Dirty-page tracking is kernel-side bookkeeping: the store
           itself is a plain store into a tracked page, so no CPU cost
           beyond the buffered write is charged here; the commit pays
           for journalling whole pages. *)
        if not (Hashtbl.mem tx.write_set addr) then
          tx.write_order <- addr :: tx.write_order;
        Hashtbl.replace tx.write_set addr v
      end
      else
        match t.config.Config.logging with
        | Config.No_log -> Nvram.write_u64 t.nvram ~addr v
        | Config.Undo ->
            undo_log_write t tx ~addr;
            Hashtbl.replace tx.written_lines (line_base t addr) ();
            Nvram.write_u64 t.nvram ~addr v
        | Config.Redo ->
            Nvram.charge t.nvram t.costs.Config.Costs.stm_write;
            if not (Hashtbl.mem tx.write_set addr) then
              tx.write_order <- addr :: tx.write_order;
            Hashtbl.replace tx.write_set addr v

let buffers_writes t = msync t && in_tx t

(* Buffered writes into a block freed later in the same transaction are
   dead: drop them, so the commit neither journals nor applies stores
   into a freed block. A same-transaction re-allocation of the block
   re-buffers fresh writes afterwards. *)
let note_free t ~addr ~size =
  match t.active with
  | Some tx when msync t ->
      let dead =
        Hashtbl.fold
          (fun a _ acc ->
            if a >= addr && a < addr + size then a :: acc else acc)
          tx.write_set []
      in
      List.iter (Hashtbl.remove tx.write_set) dead
  | _ -> ()

let log_header_write t ~addr =
  match t.active with
  | Some tx when t.config.Config.logging = Config.Undo || msync t ->
      (* Allocator metadata is written in place by the allocator itself
         (it cannot be buffered), so even under msync it is protected by
         a durable undo record: an in-place header store evicted to
         NVRAM mid-epoch is rolled back if the epoch never seals. *)
      undo_log_write t tx ~addr;
      Hashtbl.replace tx.written_lines (line_base t addr) ()
  | _ -> ()

let flush_written_lines t lines =
  Hashtbl.iter (fun line () -> Nvram.clflush t.nvram ~addr:line) lines;
  Nvram.fence t.nvram

(* The written-line set carried on Commit events: sorted so trace
   consumers (checker, static analyzer) see a canonical order. *)
let undo_commit_lines tx =
  Hashtbl.fold (fun line () acc -> line :: acc) tx.written_lines []
  |> List.sort_uniq compare

let redo_commit_lines t tx =
  List.rev_map (fun addr -> line_base t addr) tx.write_order
  |> List.sort_uniq compare

(* Failure-atomic msync commit (double-buffered page commit): journal
   the post-image of every dirty page with non-temporal fenced appends,
   seal the epoch with a commit record, and only then apply the
   buffered writes in place and flush their lines. A crash before the
   seal leaves the primary copy untouched (buffered writes never hit
   NVRAM; evicted header stores are rolled back from their undo
   records); a crash after the seal is repaired by re-applying the
   idempotent page journal. *)
let commit_msync t =
  let tx = active t in
  (* Dirty lines: buffered data writes plus undo-logged headers.
     [write_order] can hold addresses dropped by {!note_free}. *)
  List.iter
    (fun addr ->
      if Hashtbl.mem tx.write_set addr then
        Hashtbl.replace tx.written_lines (line_base t addr) ())
    tx.write_order;
  let lines = undo_commit_lines tx in
  if observed t then emit t (Commit { txid = tx.txid; written_lines = lines });
  Nvram.charge t.nvram t.costs.Config.Costs.tx_commit_base;
  if lines <> [] then begin
    ensure_began t tx;
    let pages =
      List.map page_base lines |> List.sort_uniq compare
    in
    let words_per_page = Config.msync_page / 8 in
    List.iter
      (fun page ->
        let values =
          Array.init (words_per_page + 1) (fun i ->
              if i = 0 then Int64.of_int page
              else
                let addr = page + (8 * (i - 1)) in
                match Hashtbl.find_opt tx.write_set addr with
                | Some v -> v
                | None -> Nvram.read_u64 t.nvram ~addr)
        in
        append t ~kind:k_page values)
      pages;
    append t ~kind:k_commit [| tx.txid |];
    (* The epoch is sealed: apply the buffered writes to the primary
       copy and settle them before the journal is discarded. *)
    List.iter
      (fun addr ->
        match Hashtbl.find_opt tx.write_set addr with
        | Some v -> Nvram.write_u64 t.nvram ~addr v
        | None -> ())
      (List.rev tx.write_order);
    flush_written_lines t tx.written_lines;
    Rawlog.truncate t.log ~mode:(log_mode t)
  end;
  t.active <- None;
  t.committed <- t.committed + 1

let commit t =
  if msync t then commit_msync t
  else
    match t.config.Config.logging with
    | Config.No_log ->
        (* No transaction machinery, so no [Commit] event for the metrics
           bridge to count — count inline to keep totals comparable with
           the logging configurations. *)
        t.committed <- t.committed + 1;
        Wsp_obs.Metrics.Counter.incr t.m_commits
    | Config.Undo ->
        let tx = active t in
        if observed t then
          emit t (Commit { txid = tx.txid; written_lines = undo_commit_lines tx });
        Nvram.charge t.nvram t.costs.Config.Costs.tx_commit_base;
        if tx.began_in_log then begin
          (* Undo protocol: written data must be durable before the undo
             records protecting it can be discarded. *)
          if Config.flush_on_commit t.config then
            flush_written_lines t tx.written_lines;
          append t ~kind:k_commit [| tx.txid |];
          Rawlog.truncate t.log ~mode:(log_mode t)
        end;
        t.active <- None;
        t.committed <- t.committed + 1
    | Config.Redo ->
        let tx = active t in
        if observed t then
          emit t (Commit { txid = tx.txid; written_lines = redo_commit_lines t tx });
        Nvram.charge t.nvram t.costs.Config.Costs.tx_commit_base;
        Nvram.charge t.nvram
          (Time.mul t.costs.Config.Costs.stm_validate tx.read_set);
        (if tx.write_order <> [] then begin
           let writes = List.rev tx.write_order in
           ensure_began t tx;
           List.iter
             (fun addr ->
               let v = Hashtbl.find tx.write_set addr in
               append t ~kind:k_redo [| Int64.of_int addr; v |])
             writes;
           append t ~kind:k_commit [| tx.txid |];
           (* In-place apply; the redo log already made the values durable
              (FoC), so these stores can stay cached. *)
           List.iter
             (fun addr ->
               let v = Hashtbl.find tx.write_set addr in
               Nvram.write_u64 t.nvram ~addr v;
               if Config.flush_on_commit t.config then
                 Hashtbl.replace t.unflushed (line_base t addr) ())
             writes;
           t.commits_since_truncate <- t.commits_since_truncate + 1;
           if t.commits_since_truncate >= redo_truncate_interval then begin
             (* Log truncation: applied data must be flushed before the
                redo records protecting it are discarded. *)
             if Config.flush_on_commit t.config then
               flush_written_lines t t.unflushed;
             Hashtbl.reset t.unflushed;
             Rawlog.truncate t.log ~mode:(log_mode t);
             t.commits_since_truncate <- 0
           end
         end
         else if Config.flush_on_commit t.config then
           (* Mnemosyne's commit fences even when nothing was written:
              tearing down a durable transaction context orders the log. *)
           Nvram.fence t.nvram);
        t.active <- None;
        t.committed <- t.committed + 1

let abort t =
  if msync t then begin
    let tx = active t in
    if observed t then emit t (Abort tx.txid);
    (* Buffered writes are simply discarded; in-place header writes are
       rolled back, newest first. *)
    List.iter (fun (addr, old) -> Nvram.write_u64 t.nvram ~addr old) tx.undo_order;
    if tx.began_in_log then Rawlog.truncate t.log ~mode:(log_mode t);
    t.active <- None;
    t.aborted <- t.aborted + 1
  end
  else
    match t.config.Config.logging with
    | Config.No_log ->
        t.aborted <- t.aborted + 1;
        Wsp_obs.Metrics.Counter.incr t.m_aborts
    | Config.Undo ->
        let tx = active t in
        if observed t then emit t (Abort tx.txid);
        (* Roll back, newest write first. *)
        List.iter (fun (addr, old) -> Nvram.write_u64 t.nvram ~addr old) tx.undo_order;
        if tx.began_in_log then Rawlog.truncate t.log ~mode:(log_mode t);
        t.active <- None;
        t.aborted <- t.aborted + 1
    | Config.Redo ->
        let tx = active t in
        if observed t then emit t (Abort tx.txid);
        t.active <- None;
        t.aborted <- t.aborted + 1

let with_tx t f =
  begin_tx t;
  match f () with
  | result ->
      commit t;
      result
  | exception exn ->
      if in_tx t then abort t;
      raise exn

let on_crash t =
  (* The process died with the power: any open transaction and all
     volatile bookkeeping evaporate. The log decides what recovery
     does about it. *)
  t.active <- None;
  Hashtbl.reset t.unflushed;
  t.commits_since_truncate <- 0

let recover t =
  if in_tx t then invalid_arg "Txn.recover: transaction open";
  let records = Rawlog.scan t.log in
  (if msync t then begin
     (* The log holds at most one epoch (commit truncates). Sealed:
        re-apply the page journal, which lands the primary copy exactly
        on the committed state. Unsealed: the buffered data writes never
        reached NVRAM, so only evicted header stores need rolling back
        from their undo records, newest first. *)
     let sealed = List.exists (fun (kind, _) -> kind = k_commit) records in
     if sealed then
       List.iter
         (fun (kind, values) ->
           if kind = k_page && Array.length values >= 1 then begin
             let page = Int64.to_int values.(0) in
             for i = 1 to Array.length values - 1 do
               Nvram.write_u64 t.nvram ~addr:(page + (8 * (i - 1))) values.(i)
             done
           end)
         records
     else
       List.rev records
       |> List.iter (fun (kind, values) ->
              if kind = k_undo then
                match values with
                | [| addr; old |] ->
                    Nvram.write_u64 t.nvram ~addr:(Int64.to_int addr) old
                | _ -> ())
   end
   else
     match t.config.Config.logging with
     | Config.No_log -> ()
     | Config.Undo ->
         (* The log holds at most one transaction (commit truncates). If a
            commit record is present the transaction was durable; otherwise
            roll its undo records back, newest first. *)
         let committed =
           List.exists (fun (kind, _) -> kind = k_commit) records
         in
         if not committed then
           List.rev records
           |> List.iter (fun (kind, values) ->
                  if kind = k_undo then
                    match values with
                    | [| addr; old |] ->
                        Nvram.write_u64 t.nvram ~addr:(Int64.to_int addr) old
                    | _ -> ())
     | Config.Redo ->
         (* Replay redo records of committed transactions in log order. *)
         let committed_txids = Hashtbl.create 16 in
         List.iter
           (fun (kind, values) ->
             if kind = k_commit then
               match values with
               | [| txid |] -> Hashtbl.replace committed_txids txid ()
               | _ -> ())
           records;
         let current = ref None in
         List.iter
           (fun (kind, values) ->
             if kind = k_begin then
               match values with
               | [| txid |] -> current := Some txid
               | _ -> ()
             else if kind = k_redo then
               match (!current, values) with
               | Some txid, [| addr; v |] when Hashtbl.mem committed_txids txid
                 ->
                   Nvram.write_u64 t.nvram ~addr:(Int64.to_int addr) v
               | _ -> ())
           records);
  Hashtbl.reset t.unflushed;
  t.commits_since_truncate <- 0;
  Rawlog.truncate t.log ~mode:Rawlog.Durable

let quiesce t =
  if in_tx t then invalid_arg "Txn.quiesce: transaction open";
  if Rawlog.used_words t.log > 0 then begin
    (* Redo (FoC) logs may protect in-place data that is not yet
       settled; flush it before the records covering it are discarded.
       Log records embed absolute addresses, so a quiesced (empty) log
       is also what makes a heap image relocatable. *)
    if Config.flush_on_commit t.config then flush_written_lines t t.unflushed;
    Hashtbl.reset t.unflushed;
    t.commits_since_truncate <- 0;
    Rawlog.truncate t.log ~mode:(log_mode t)
  end

let attach ?costs ~nvram ~config ~log () =
  let t = create ?costs ~nvram ~config ~log () in
  recover t;
  t

let committed_count t = t.committed
let aborted_count t = t.aborted
