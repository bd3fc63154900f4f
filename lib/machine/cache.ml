open Wsp_sim

type config = {
  name : string;
  size : Units.Size.t;
  line_size : int;
  associativity : int;
  hit_latency : Time.t;
}

(* Struct-of-arrays tag store. Way [w] of set [s] is slot
   [s * associativity + w]; per slot, [tags] holds the line (-1 when
   invalid), [ages] the LRU stamp (larger is more recent; kept across
   invalidation, since the victim tie-break among invalid ways reads it)
   and [dirty] one byte. The dirty slots form a circular doubly-linked
   list threaded through [dirty_prev]/[dirty_next], with slot index
   [sentinel] (one past the last way) as its head; a clean slot links to
   itself. The list keeps [dirty_lines]/[iter_dirty] O(dirty) and in
   dirtying order, and together with the counters turns the dirty polls
   protocol loops issue per simulated step into O(dirty). Nothing here
   allocates after [create]. *)
type t = {
  cfg : config;
  n_sets : int;
  assoc : int;
  tags : int array;
  ages : int array;
  dirty : Bytes.t;  (* '\001' = dirty *)
  dirty_prev : int array;  (* length slots + 1: the sentinel is last *)
  dirty_next : int array;
  sentinel : int;
  mutable dirty_n : int;
  mutable resident_n : int;
  mutable tick : int;
}

let create cfg =
  let total_lines = Units.Size.to_bytes cfg.size / cfg.line_size in
  assert (total_lines > 0 && cfg.associativity > 0);
  assert (total_lines mod cfg.associativity = 0);
  {
    cfg;
    n_sets = total_lines / cfg.associativity;
    assoc = cfg.associativity;
    tags = Array.make total_lines (-1);
    ages = Array.make total_lines 0;
    dirty = Bytes.make total_lines '\000';
    dirty_prev = Array.init (total_lines + 1) Fun.id;
    dirty_next = Array.init (total_lines + 1) Fun.id;
    sentinel = total_lines;
    dirty_n = 0;
    resident_n = 0;
    tick = 0;
  }

let config t = t.cfg
let line_count t = t.sentinel

let line_of_addr t addr =
  (* Addresses are non-negative byte addresses; asserting here lets
     [find] skip the mod-normalisation dance on the hot path. *)
  assert (addr >= 0);
  addr / t.cfg.line_size

let is_dirty_slot t s = Bytes.unsafe_get t.dirty s <> '\000'

(* Appending at the tail keeps [dirty_lines] in dirtying order, which is
   deterministic regardless of cache geometry. *)
let mark_dirty t s =
  if not (is_dirty_slot t s) then begin
    Bytes.unsafe_set t.dirty s '\001';
    let last = t.dirty_prev.(t.sentinel) in
    t.dirty_prev.(s) <- last;
    t.dirty_next.(s) <- t.sentinel;
    t.dirty_next.(last) <- s;
    t.dirty_prev.(t.sentinel) <- s;
    t.dirty_n <- t.dirty_n + 1
  end

let mark_clean t s =
  if is_dirty_slot t s then begin
    Bytes.unsafe_set t.dirty s '\000';
    let prev = t.dirty_prev.(s) and next = t.dirty_next.(s) in
    t.dirty_next.(prev) <- next;
    t.dirty_prev.(next) <- prev;
    t.dirty_prev.(s) <- s;
    t.dirty_next.(s) <- s;
    t.dirty_n <- t.dirty_n - 1
  end

(* An evicted line and its dirty bit packed into one immediate, so the
   miss path allocates nothing. *)
type victim = int

let no_victim = -1
let victim_line v = v asr 1
let victim_dirty v = v land 1 = 1

(* Top-level so probing allocates no closure. Invalid slots hold -1,
   which no line equals. *)
let rec scan (tags : int array) (line : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = line then i
  else scan tags line (i + 1) stop

(* The slot holding [line], or -1. *)
let find t line =
  let base = line mod t.n_sets * t.assoc in
  scan t.tags line base (base + t.assoc)

let touch t s =
  t.tick <- t.tick + 1;
  t.ages.(s) <- t.tick

let probe t ~line =
  let s = find t line in
  s >= 0
  && begin
       touch t s;
       true
     end

let contains t ~line = find t line >= 0

(* Victim selection: prefer an invalid way; otherwise the least recently
   used; ties keep the lower way. *)
let rec pick_slot t i stop best =
  if i >= stop then best
  else
    let valid = t.tags.(i) >= 0 and best_valid = t.tags.(best) >= 0 in
    let older = t.ages.(i) < t.ages.(best) in
    let best =
      if not valid then if best_valid || older then i else best
      else if best_valid && older then i
      else best
    in
    pick_slot t (i + 1) stop best

let insert t ~line ~dirty =
  let s = find t line in
  if s >= 0 then begin
    if dirty then mark_dirty t s;
    touch t s;
    no_victim
  end
  else begin
    let base = line mod t.n_sets * t.assoc in
    let s = pick_slot t (base + 1) (base + t.assoc) base in
    let old = t.tags.(s) in
    let victim =
      if old < 0 then begin
        t.resident_n <- t.resident_n + 1;
        no_victim
      end
      else (old lsl 1) lor Bool.to_int (is_dirty_slot t s)
    in
    mark_clean t s;
    t.tags.(s) <- line;
    if dirty then mark_dirty t s;
    touch t s;
    victim
  end

let set_dirty t ~line =
  let s = find t line in
  if s >= 0 then mark_dirty t s

let is_dirty t ~line =
  let s = find t line in
  s >= 0 && is_dirty_slot t s

let invalidate t ~line =
  let s = find t line in
  s >= 0
  && begin
       let was_dirty = is_dirty_slot t s in
       mark_clean t s;
       t.tags.(s) <- -1;
       t.resident_n <- t.resident_n - 1;
       was_dirty
     end

let iter_dirty t f =
  let s = ref t.dirty_next.(t.sentinel) in
  while !s <> t.sentinel do
    f t.tags.(!s);
    s := t.dirty_next.(!s)
  done

let dirty_lines t =
  let acc = ref [] in
  iter_dirty t (fun line -> acc := line :: !acc);
  !acc

let dirty_count t = t.dirty_n
let resident_count t = t.resident_n

(* Brute-force references for the incremental bookkeeping, kept for the
   invariant tests and the before/after microbenchmarks: folds over
   every slot that ignore the counters and the dirty list. *)
let fold_slots f acc t =
  let acc = ref acc in
  Array.iteri (fun s line -> if line >= 0 then acc := f !acc s line) t.tags;
  !acc

let dirty_lines_slow t =
  fold_slots (fun acc s line -> if is_dirty_slot t s then line :: acc else acc) [] t

let dirty_count_slow t =
  fold_slots (fun acc s _ -> if is_dirty_slot t s then acc + 1 else acc) 0 t

let resident_count_slow t = fold_slots (fun acc _ _ -> acc + 1) 0 t

(* A snapshot copies every array of the tag store, the dirty list's
   links included, so restoring is a blit per array: the dirty order
   (observable through the write-back order of [iter_dirty]) comes back
   exactly, with no per-line lookup. *)
type snapshot = {
  snap_tags : int array;
  snap_ages : int array;
  snap_dirty : Bytes.t;
  snap_prev : int array;
  snap_next : int array;
  snap_dirty_n : int;
  snap_resident : int;
  snap_tick : int;
}

let snapshot t =
  {
    snap_tags = Array.copy t.tags;
    snap_ages = Array.copy t.ages;
    snap_dirty = Bytes.copy t.dirty;
    snap_prev = Array.copy t.dirty_prev;
    snap_next = Array.copy t.dirty_next;
    snap_dirty_n = t.dirty_n;
    snap_resident = t.resident_n;
    snap_tick = t.tick;
  }

let restore t s =
  if Array.length s.snap_tags <> t.sentinel then
    invalid_arg "Cache.restore: snapshot from a different geometry";
  let blit src dst = Array.blit src 0 dst 0 (Array.length dst) in
  blit s.snap_tags t.tags;
  blit s.snap_ages t.ages;
  Bytes.blit s.snap_dirty 0 t.dirty 0 t.sentinel;
  blit s.snap_prev t.dirty_prev;
  blit s.snap_next t.dirty_next;
  t.dirty_n <- s.snap_dirty_n;
  t.resident_n <- s.snap_resident;
  t.tick <- s.snap_tick

let clear t =
  Array.fill t.tags 0 t.sentinel (-1);
  Bytes.fill t.dirty 0 t.sentinel '\000';
  for s = 0 to t.sentinel do
    t.dirty_prev.(s) <- s;
    t.dirty_next.(s) <- s
  done;
  t.dirty_n <- 0;
  t.resident_n <- 0
