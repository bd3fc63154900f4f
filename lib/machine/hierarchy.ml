open Wsp_sim
module C = Wsp_obs.Metrics.Counter

type config = {
  levels : Cache.config list;
  memory_latency : Time.t;
  memory_bandwidth : Units.Bandwidth.t;
  memory_write_bandwidth : Units.Bandwidth.t;
  nt_store_latency : Time.t;
  fence_latency : Time.t;
  clflush_issue : Time.t;
  wbinvd_line_walk : Time.t;
}

(* Metric handles resolved once at [create] from the domain's ambient
   registry, so the access path only mutates counter records. *)
type metrics = {
  m_hits : Wsp_obs.Metrics.Counter.t;
  m_misses : Wsp_obs.Metrics.Counter.t;
  m_evictions : Wsp_obs.Metrics.Counter.t;
  m_writeback_bytes : Wsp_obs.Metrics.Counter.t;
  m_clflush : Wsp_obs.Metrics.Counter.t;
  m_clflush_bytes : Wsp_obs.Metrics.Counter.t;
  m_flush_range : Wsp_obs.Metrics.Counter.t;
  m_flush_range_bytes : Wsp_obs.Metrics.Counter.t;
  m_wbinvd : Wsp_obs.Metrics.Counter.t;
  m_wbinvd_bytes : Wsp_obs.Metrics.Counter.t;
  m_nt_stores : Wsp_obs.Metrics.Counter.t;
  m_nt_flush_bytes : Wsp_obs.Metrics.Counter.t;
  m_fences : Wsp_obs.Metrics.Counter.t;
}

(* Machine-level persistency ops, beneath the memory-event stream the
   NVRAM publishes: the one fact only the hierarchy knows is *when a
   dirty line leaves it* — explicitly (flush instructions) or silently
   (capacity eviction). The static persistency analyzer needs the
   silent write-backs to track the true dirty footprint. *)
type op =
  | Op_store of { line : int }
  | Op_writeback of { line : int; explicit : bool }
  | Op_fence

type t = {
  cfg : config;
  levels : Cache.t array;  (* levels.(0) is L1; last is the LLC. *)
  cum_hit_latency : Time.t array;
      (* cum_hit_latency.(k) = sum of hit latencies of levels 0..k: the
         cost of a hit at level k, precomputed so the access path adds
         nothing per probe. *)
  miss_latency : Time.t;  (* Full probe chain plus memory latency. *)
  line_size : int;
  seen : (int, unit) Hashtbl.t;
      (* Scratch table reused by the dirty-line union walks; reset per
         call so dirty polls allocate no fresh table. *)
  on_writeback : line:int -> explicit:bool -> unit;
      (* Backing-store data path, fixed at creation: where dirty bytes
         go when a line leaves the hierarchy. *)
  ops : op Wsp_events.Bus.t;
      (* Persistency-op stream for machine-level observers; with no
         subscriber the access path pays only the bus's empty-array
         branch per op. *)
  m : metrics;
}

(* Callers build the op only under [observed], so an unobserved
   hierarchy allocates nothing per access. *)
let observed t = Wsp_events.Bus.active t.ops
let emit t op = Wsp_events.Bus.publish t.ops op

let write_back t ~line ~explicit =
  if observed t then emit t (Op_writeback { line; explicit });
  t.on_writeback ~line ~explicit

let config_line_size (cfg : config) =
  match cfg.levels with
  | [] -> invalid_arg "Hierarchy.create: no levels"
  | first :: _ -> first.Cache.line_size

let create ?(on_writeback = fun ~line:_ ~explicit:_ -> ()) (cfg : config) =
  (match cfg.levels with
  | [] -> invalid_arg "Hierarchy.create: no levels"
  | first :: rest ->
      List.iter
        (fun (l : Cache.config) ->
          if l.line_size <> first.line_size then
            invalid_arg "Hierarchy.create: mismatched line sizes")
        rest);
  let levels = Array.of_list (List.map Cache.create cfg.levels) in
  let line_size = (List.hd cfg.levels).Cache.line_size in
  let cum_hit_latency = Array.make (Array.length levels) Time.zero in
  let acc = ref Time.zero in
  Array.iteri
    (fun i level ->
      acc := Time.add !acc (Cache.config level).Cache.hit_latency;
      cum_hit_latency.(i) <- !acc)
    levels;
  let miss_latency = Time.add !acc cfg.memory_latency in
  let reg = Wsp_obs.Metrics.ambient () in
  let c = Wsp_obs.Metrics.counter reg in
  {
    cfg;
    levels;
    cum_hit_latency;
    miss_latency;
    line_size;
    seen = Hashtbl.create 256;
    on_writeback;
    ops = Wsp_events.Bus.create ();
    m =
      {
        m_hits = c "machine.cache.hits";
        m_misses = c "machine.cache.misses";
        m_evictions = c "machine.cache.evictions";
        m_writeback_bytes = c "machine.cache.writeback_bytes";
        m_clflush = c "machine.flush.clflush";
        m_clflush_bytes = c "machine.flush.clflush_bytes";
        m_flush_range = c "machine.flush.flush_range";
        m_flush_range_bytes = c "machine.flush.flush_range_bytes";
        m_wbinvd = c "machine.flush.wbinvd";
        m_wbinvd_bytes = c "machine.flush.wbinvd_bytes";
        m_nt_stores = c "machine.flush.nt_stores";
        m_nt_flush_bytes = c "machine.flush.nt_flush_bytes";
        m_fences = c "machine.flush.fences";
      };
  }

let config t = t.cfg
let line_size t = t.line_size
let ops t = t.ops
let llc t = t.levels.(Array.length t.levels - 1)

let line_of t addr =
  assert (addr >= 0);
  addr / t.line_size

(* Evicting [victim] from level [i]: inclusion requires dropping it from
   all upper levels too, accumulating dirtiness. If level [i] is the LLC
   the line leaves the hierarchy and a dirty victim is written back;
   otherwise it is demoted into level [i+1] (where inclusion normally
   means it is already present — if not, it is re-inserted, which may
   cascade). *)
let rec evict_from t i victim =
  C.incr t.m.m_evictions;
  let line = Cache.victim_line victim in
  let dirty = ref (Cache.victim_dirty victim) in
  for j = 0 to i - 1 do
    if Cache.invalidate t.levels.(j) ~line then dirty := true
  done;
  if i = Array.length t.levels - 1 then begin
    if !dirty then begin
      C.add t.m.m_writeback_bytes t.line_size;
      write_back t ~line ~explicit:false
    end
  end
  else
    let below = t.levels.(i + 1) in
    if Cache.contains below ~line then begin
      if !dirty then Cache.set_dirty below ~line
    end
    else
      let v = Cache.insert below ~line ~dirty:!dirty in
      if v <> Cache.no_victim then evict_from t (i + 1) v

(* Fills [line] into levels [0..upto], lowest level first so that
   inclusion holds while upper-level evictions demote downwards. *)
let fill t ~line ~upto =
  for i = upto downto 0 do
    if not (Cache.contains t.levels.(i) ~line) then
      let v = Cache.insert t.levels.(i) ~line ~dirty:false in
      if v <> Cache.no_victim then evict_from t i v
  done

(* Probes levels in order; the hit level's index, or -1 on a full miss.
   Top-level and index-based so the per-access path allocates nothing:
   the former probe_chain returned an (int option * Time.t) pair, paying
   a tuple and an option per load/store. *)
let rec probe_from levels line i n =
  if i >= n then -1
  else if Cache.probe (Array.unsafe_get levels i) ~line then i
  else probe_from levels line (i + 1) n

let access t ~addr ~write =
  let line = line_of t addr in
  let n = Array.length t.levels in
  let k = probe_from t.levels line 0 n in
  let latency =
    if k < 0 then begin
      C.incr t.m.m_misses;
      fill t ~line ~upto:(n - 1);
      t.miss_latency
    end
    else begin
      C.incr t.m.m_hits;
      if k > 0 then fill t ~line ~upto:(k - 1);
      Array.unsafe_get t.cum_hit_latency k
    end
  in
  if write then begin
    Cache.set_dirty t.levels.(0) ~line;
    if observed t then emit t (Op_store { line })
  end;
  latency

let load t ~addr = access t ~addr ~write:false
let store t ~addr = access t ~addr ~write:true

let invalidate_line t line =
  let dirty = ref false in
  for i = 0 to Array.length t.levels - 1 do
    if Cache.invalidate t.levels.(i) ~line then dirty := true
  done;
  !dirty

let store_nt t ~addr =
  let line = line_of t addr in
  C.incr t.m.m_nt_stores;
  (* Any cached copy is flushed first so the line's pre-existing dirty
     bytes are not lost when the caller writes directly to backing. *)
  if invalidate_line t line then begin
    C.add t.m.m_nt_flush_bytes t.line_size;
    write_back t ~line ~explicit:true
  end;
  t.cfg.nt_store_latency

let fence t =
  C.incr t.m.m_fences;
  emit t Op_fence;
  t.cfg.fence_latency

let clflush t ~addr =
  let line = line_of t addr in
  C.incr t.m.m_clflush;
  let dirty = invalidate_line t line in
  if dirty then begin
    C.add t.m.m_clflush_bytes t.line_size;
    write_back t ~line ~explicit:true
  end;
  let latency = t.cfg.clflush_issue in
  if dirty then
    Time.add latency
      (Units.Bandwidth.transfer_time t.cfg.memory_write_bandwidth t.line_size)
  else latency

let flush_lines t ~addr ~len =
  if len <= 0 then Time.zero
  else begin
    (* Batched bookkeeping: invalidate the whole range first, then
       charge one issue per line and a single write-back transfer for
       the dirty total, instead of a clflush round-trip per line. *)
    C.incr t.m.m_flush_range;
    let first = line_of t addr and last = line_of t (addr + len - 1) in
    let dirty = ref 0 in
    for line = first to last do
      if invalidate_line t line then begin
        incr dirty;
        write_back t ~line ~explicit:true
      end
    done;
    C.add t.m.m_flush_range_bytes (!dirty * t.line_size);
    let issue = Time.mul t.cfg.clflush_issue (last - first + 1) in
    if !dirty = 0 then issue
    else
      Time.add issue
        (Units.Bandwidth.transfer_time t.cfg.memory_write_bandwidth
           (!dirty * t.line_size))
  end

(* The union across levels is walked via each level's intrusive dirty
   index, O(total dirty entries); the scratch table de-duplicates lines
   dirty at several levels at once (a store dirties only L1, so L1 and
   L2 copies of one line can both be dirty). Single-level hierarchies
   skip the table entirely. *)
let iter_dirty t f =
  if Array.length t.levels = 1 then Cache.iter_dirty t.levels.(0) f
  else begin
    let seen = t.seen in
    Hashtbl.reset seen;
    Array.iter
      (fun level ->
        Cache.iter_dirty level (fun line ->
            if not (Hashtbl.mem seen line) then begin
              Hashtbl.add seen line ();
              f line
            end))
      t.levels
  end

let dirty_lines t =
  let acc = ref [] in
  iter_dirty t (fun line -> acc := line :: !acc);
  !acc

let dirty_line_count t =
  if Array.length t.levels = 1 then Cache.dirty_count t.levels.(0)
  else begin
    let n = ref 0 in
    iter_dirty t (fun _ -> incr n);
    !n
  end

let dirty_bytes t = dirty_line_count t * t.line_size

(* The old O(total slots) poll, kept as the before/after baseline for
   the dirty-poll microbenchmark. *)
let dirty_bytes_slow t =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun level ->
      List.iter
        (fun line -> if not (Hashtbl.mem seen line) then Hashtbl.add seen line ())
        (Cache.dirty_lines_slow level))
    t.levels;
  Hashtbl.length seen * t.line_size

let resident_lines t =
  (* Distinct lines present anywhere; by inclusion this is the LLC count. *)
  Cache.resident_count (llc t)

let total_line_slots t =
  Array.fold_left (fun acc level -> acc + Cache.line_count level) 0 t.levels

let flush_all t =
  C.incr t.m.m_wbinvd;
  let dirty = ref 0 in
  iter_dirty t (fun line ->
      incr dirty;
      write_back t ~line ~explicit:true);
  C.add t.m.m_wbinvd_bytes (!dirty * t.line_size);
  Array.iter Cache.clear t.levels;
  let walk = Time.mul t.cfg.wbinvd_line_walk (total_line_slots t) in
  let transfer =
    Units.Bandwidth.transfer_time t.cfg.memory_write_bandwidth
      (!dirty * t.line_size)
  in
  Time.add walk transfer

let drop_volatile t = Array.iter Cache.clear t.levels

(* Snapshots cover tag state only: metrics keep accumulating across a
   restore (they describe work performed, not machine state) and the
   [seen] scratch table is reset at the start of every walk anyway. *)
type snapshot = Cache.snapshot array

let snapshot t = Array.map Cache.snapshot t.levels

let restore t s =
  if Array.length s <> Array.length t.levels then
    invalid_arg "Hierarchy.restore: snapshot from a different hierarchy";
  Array.iteri (fun i cs -> Cache.restore t.levels.(i) cs) s
