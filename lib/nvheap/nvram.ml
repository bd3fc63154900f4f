open Wsp_sim
module Hierarchy = Wsp_machine.Hierarchy
module Bus = Wsp_events.Bus

type event = Event.mem =
  | Store of { addr : int; len : int }
  | Store_nt of { addr : int }
  | Fence
  | Clflush of { addr : int }
  | Flush_range of { addr : int; len : int }
  | Wbinvd

type fault = No_fault | Broken_fence

exception Budget_exhausted

(* The replay tap: a synchronous observer of every *data* mutation, in
   exact chronological order. The event bus cannot serve this purpose —
   events are published before the primitive mutates anything and carry
   no payload ([Store {addr; len}] has no bytes; at publish time the
   data is not in the NVRAM yet). Each callback fires at the moment its
   mutation happens, so appending the calls to a log and replaying them
   over a copy of the starting state reproduces backing, dirty-overlay
   and write-combining contents exactly. *)
type tap = {
  on_slice : addr:int -> data:Bytes.t -> unit;
      (* [data] was just written to the dirty overlay at [addr]; spans a
         single line by construction. The recorder owns [data]. *)
  on_nt : addr:int -> v:int64 -> unit;
      (* An 8-byte non-temporal store was queued. *)
  on_wb : line:int -> data:Bytes.t -> unit;
      (* [line]'s overlay contents [data] are being written back to
         backing and dropped from the overlay. [data] is a fresh copy
         owned by the tap. *)
  on_drain : unit -> unit;
      (* The write-combining queue was flushed to backing. *)
}

(* The memory model. [image] is the volatile view: every byte as running
   software reads it, dirty cache lines included. What a power failure
   would leave — the persistent view — differs from it only on lines a
   cached store has dirtied since their last write-back, and for each
   such line [pre] holds its persistent bytes (the crash pre-image),
   saved just before the line's first cached store. So:

   - a cached store saves the line's pre-image if it has none, then
     writes the image;
   - a hierarchy write-back drops the pre-image (the image already holds
     the bytes that reach NVRAM);
   - a drained non-temporal store is persistent at once: it lands in the
     pre-image when the line has one (software keeps reading the cached
     line, which hides it), and in the image otherwise;
   - a crash copies every pre-image back into the image.

   Pre-images live in slots [0, pre_n) of one growable buffer, kept
   dense by moving the last slot into a freed one; [slot_of_line] maps a
   line to its slot (-1 = none). The undrained non-temporal stores are
   parallel growable arrays. Nothing on the access path hashes or
   allocates unless a tap or a subscriber is attached. *)
type t = {
  image : Bytes.t;
  line_size : int;
  slot_of_line : int array;
  mutable pre : Bytes.t;  (* slot k at [k * line_size] *)
  mutable pre_line : int array;  (* slot -> line *)
  mutable pre_n : int;
  mutable nt_addr : int array;  (* undrained NT stores, oldest first *)
  mutable nt_val : Bytes.t;  (* entry i's value at [8 * i] *)
  mutable nt_n : int;
  scratch : Bytes.t;  (* source of [write_u8] and of a word that straddles two lines *)
  hierarchy : Hierarchy.t;
  mutable clock : Time.t;
  bus : Event.t Bus.t;
  mutable fault : fault;
  mutable steps_left : int;
      (* Remaining budgeted accesses; -1 = unlimited (the default). *)
  mutable tap : tap option;
}

let default_hierarchy () =
  Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528

(* --- pre-images ------------------------------------------------------- *)

let grow_pre t =
  let cap = 2 * Array.length t.pre_line in
  let pre = Bytes.create (cap * t.line_size) in
  Bytes.blit t.pre 0 pre 0 (t.pre_n * t.line_size);
  let pre_line = Array.make cap (-1) in
  Array.blit t.pre_line 0 pre_line 0 t.pre_n;
  t.pre <- pre;
  t.pre_line <- pre_line

(* Called before a cached store lands in [line]. *)
let save_pre t line =
  if t.slot_of_line.(line) < 0 then begin
    if t.pre_n = Array.length t.pre_line then grow_pre t;
    let k = t.pre_n in
    Bytes.blit t.image (line * t.line_size) t.pre (k * t.line_size) t.line_size;
    t.pre_line.(k) <- line;
    t.slot_of_line.(line) <- k;
    t.pre_n <- k + 1
  end

let drop_slot t k =
  let last = t.pre_n - 1 in
  t.slot_of_line.(t.pre_line.(k)) <- -1;
  if k <> last then begin
    let moved = t.pre_line.(last) in
    Bytes.blit t.pre (last * t.line_size) t.pre (k * t.line_size) t.line_size;
    t.pre_line.(k) <- moved;
    t.slot_of_line.(moved) <- k
  end;
  t.pre_n <- last

(* Writes [len] bytes of [src] at [src_off] to the persistent view at
   [addr]: each byte goes to its line's pre-image if it has one, else
   to the image. *)
let persist t ~addr src ~src_off ~len =
  let ls = t.line_size in
  let a = ref addr and stop = addr + len in
  while !a < stop do
    let line = !a / ls in
    let n = min stop ((line + 1) * ls) - !a in
    let k = t.slot_of_line.(line) in
    if k < 0 then Bytes.blit src (src_off + !a - addr) t.image !a n
    else Bytes.blit src (src_off + !a - addr) t.pre ((k * ls) + (!a mod ls)) n;
    a := !a + n
  done

(* Copies [len] persistent bytes at [addr] into [dst]. *)
let blit_persistent t ~addr ~len dst ~dst_off =
  Bytes.blit t.image addr dst dst_off len;
  if t.pre_n > 0 && len > 0 then begin
    let ls = t.line_size in
    for line = addr / ls to (addr + len - 1) / ls do
      let k = t.slot_of_line.(line) in
      if k >= 0 then begin
        let lo = max addr (line * ls) and hi = min (addr + len) ((line + 1) * ls) in
        Bytes.blit t.pre ((k * ls) + (lo mod ls)) dst (dst_off + lo - addr) (hi - lo)
      end
    done
  end

(* --- construction ----------------------------------------------------- *)

let create ?hierarchy ?backing ~size () =
  let cfg = match hierarchy with Some h -> h | None -> default_hierarchy () in
  let line_size = Hierarchy.config_line_size cfg in
  let image =
    match backing with
    | None -> Bytes.make (Units.Size.to_bytes size) '\x00'
    | Some b ->
        if Bytes.length b < Units.Size.to_bytes size then
          invalid_arg "Nvram.create: backing smaller than size";
        b
  in
  let bus = Bus.create () in
  (* The write-back closure is built before the record it updates. *)
  let self = ref None in
  (* The hierarchy's write-back wiring both settles the line's bytes and
     surfaces the machine-level fact on the unified bus: silent capacity
     evictions and explicit flushes arrive as the same [Wb] event,
     distinguished only by [explicit]. *)
  let on_writeback ~line ~explicit =
    if Bus.dense bus then Bus.publish bus (Event.Wb { line; explicit });
    match !self with
    | None -> ()
    | Some t ->
        let k = t.slot_of_line.(line) in
        if k >= 0 then begin
          (match t.tap with
          | Some tp ->
              tp.on_wb ~line ~data:(Bytes.sub t.image (line * line_size) line_size)
          | None -> ());
          drop_slot t k
        end
  in
  let h = Hierarchy.create ~on_writeback cfg in
  if Event_obs.enabled () then ignore (Event_obs.attach bus);
  let slots = 64 in
  let t =
    {
      image;
      line_size;
      slot_of_line = Array.make ((Bytes.length image + line_size - 1) / line_size) (-1);
      pre = Bytes.create (slots * line_size);
      pre_line = Array.make slots (-1);
      pre_n = 0;
      nt_addr = Array.make 16 0;
      nt_val = Bytes.create (16 * 8);
      nt_n = 0;
      scratch = Bytes.create 8;
      hierarchy = h;
      clock = Time.zero;
      bus;
      fault = No_fault;
      steps_left = -1;
      tap = None;
    }
  in
  self := Some t;
  t

let bus t = t.bus
let set_fault t fault = t.fault <- fault
let fault t = t.fault

let set_step_budget t = function
  | None -> t.steps_left <- -1
  | Some n ->
      if n < 0 then invalid_arg "Nvram.set_step_budget: negative budget";
      t.steps_left <- n

(* One branch on the unlimited path; a walk over a cyclic corrupt
   structure performs unbounded reads, so metering accesses bounds every
   recovery/oracle traversal without the structures cooperating. *)
let spend_step t =
  if t.steps_left >= 0 then begin
    if t.steps_left = 0 then raise Budget_exhausted;
    t.steps_left <- t.steps_left - 1
  end

let set_tap t tp =
  (match (tp, t.tap) with
  | Some _, Some _ -> invalid_arg "Nvram.set_tap: a tap is already attached"
  | _ -> ());
  t.tap <- tp

(* Published before the primitive mutates anything, so a subscriber that
   raises models a power failure between the preceding store and this
   one. Callers build the event only under [Bus.active] (or
   [Bus.dense] for the per-word [Store]/[Store_nt]). *)
let emit t ev = Bus.publish t.bus (Event.Mem ev)

(* Payload-free events, preallocated. *)
let ev_fence = Event.Mem Fence
let ev_wbinvd = Event.Mem Wbinvd

let size t = Bytes.length t.image
let line_size t = t.line_size
let hierarchy t = t.hierarchy
let clock t = t.clock
let reset_clock t = t.clock <- Time.zero
let charge t span = t.clock <- Time.add t.clock span

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.image then
    invalid_arg (Fmt.str "Nvram: address range [%d,%d) out of bounds" addr (addr + len))

(* --- cached accesses -------------------------------------------------- *)

(* Charges one hierarchy load per line the range touches. *)
let charge_load t ~addr ~len =
  spend_step t;
  let ls = t.line_size in
  for line = addr / ls to (addr + len - 1) / ls do
    charge t (Hierarchy.load t.hierarchy ~addr:(line * ls))
  done

(* Writes a byte range, interleaving the hierarchy access and the data
   write per line: a later line's hierarchy charge can evict an earlier
   line of this same store, and its write-back must find that line's
   bytes already in the image. The tap fires per line, after that
   line's bytes land, so it sees the slice before its write-back. *)
let write_range t ~addr src ~src_off ~len =
  spend_step t;
  if Bus.dense t.bus then emit t (Store { addr; len });
  let ls = t.line_size in
  for line = addr / ls to (addr + len - 1) / ls do
    charge t (Hierarchy.store t.hierarchy ~addr:(line * ls));
    save_pre t line;
    let lo = max addr (line * ls) and hi = min (addr + len) ((line + 1) * ls) in
    Bytes.blit src (src_off + lo - addr) t.image lo (hi - lo);
    match t.tap with
    | Some tp ->
        tp.on_slice ~addr:lo ~data:(Bytes.sub src (src_off + lo - addr) (hi - lo))
    | None -> ()
  done

let read_u64 t ~addr =
  check_range t addr 8;
  charge_load t ~addr ~len:8;
  Bytes.get_int64_le t.image addr

(* The common single-line word takes [write_range]'s steps inline, with
   no source buffer. *)
let write_u64 t ~addr v =
  check_range t addr 8;
  let ls = t.line_size in
  let line = addr / ls in
  if (addr + 7) / ls <> line then begin
    Bytes.set_int64_le t.scratch 0 v;
    write_range t ~addr t.scratch ~src_off:0 ~len:8
  end
  else begin
    spend_step t;
    if Bus.dense t.bus then emit t (Store { addr; len = 8 });
    charge t (Hierarchy.store t.hierarchy ~addr:(line * ls));
    save_pre t line;
    Bytes.set_int64_le t.image addr v;
    match t.tap with
    | Some tp -> tp.on_slice ~addr ~data:(Bytes.sub t.image addr 8)
    | None -> ()
  end

let read_u8 t ~addr =
  check_range t addr 1;
  charge_load t ~addr ~len:1;
  Char.code (Bytes.get t.image addr)

let write_u8 t ~addr v =
  check_range t addr 1;
  Bytes.set t.scratch 0 (Char.chr (v land 0xff));
  write_range t ~addr t.scratch ~src_off:0 ~len:1

let read_bytes t ~addr ~len =
  check_range t addr len;
  if len > 0 then charge_load t ~addr ~len;
  Bytes.sub t.image addr len

let write_bytes t ~addr src =
  let len = Bytes.length src in
  check_range t addr len;
  if len > 0 then write_range t ~addr src ~src_off:0 ~len

(* --- non-temporal path ------------------------------------------------ *)

let write_u64_nt t ~addr v =
  check_range t addr 8;
  if Bus.dense t.bus then emit t (Store_nt { addr });
  charge t (Hierarchy.store_nt t.hierarchy ~addr);
  let i = t.nt_n in
  if i = Array.length t.nt_addr then begin
    let addrs = Array.make (2 * i) 0 and vals = Bytes.create (16 * i) in
    Array.blit t.nt_addr 0 addrs 0 i;
    Bytes.blit t.nt_val 0 vals 0 (8 * i);
    t.nt_addr <- addrs;
    t.nt_val <- vals
  end;
  t.nt_addr.(i) <- addr;
  Bytes.set_int64_le t.nt_val (8 * i) v;
  t.nt_n <- i + 1;
  match t.tap with Some tp -> tp.on_nt ~addr ~v | None -> ()

(* Drains the write-combining queue into the persistent view, oldest
   first. *)
let drain t =
  for i = 0 to t.nt_n - 1 do
    persist t ~addr:t.nt_addr.(i) t.nt_val ~src_off:(8 * i) ~len:8
  done;
  t.nt_n <- 0;
  match t.tap with Some tp -> tp.on_drain () | None -> ()

let fence t =
  Bus.publish t.bus ev_fence;
  charge t (Hierarchy.fence t.hierarchy);
  (* A broken fence charges its latency but never drains the
     write-combining buffers — the deliberate-sabotage mode the
     crash-consistency checker must detect. *)
  if t.fault <> Broken_fence then drain t

let pending_nt_bytes t = 8 * t.nt_n

(* --- flushes ---------------------------------------------------------- *)

let clflush t ~addr =
  check_range t addr 1;
  if Bus.active t.bus then emit t (Clflush { addr });
  charge t (Hierarchy.clflush t.hierarchy ~addr)

let flush_range t ~addr ~len =
  check_range t addr len;
  if Bus.active t.bus then emit t (Flush_range { addr; len });
  charge t (Hierarchy.flush_lines t.hierarchy ~addr ~len)

let wbinvd t =
  Bus.publish t.bus ev_wbinvd;
  charge t (Hierarchy.flush_all t.hierarchy);
  (* Flushing also drains write-combining buffers. *)
  drain t;
  assert (t.pre_n = 0)

(* --- failure ---------------------------------------------------------- *)

let crash t =
  Hierarchy.drop_volatile t.hierarchy;
  let ls = t.line_size in
  for k = 0 to t.pre_n - 1 do
    let line = t.pre_line.(k) in
    Bytes.blit t.pre (k * ls) t.image (line * ls) ls;
    t.slot_of_line.(line) <- -1
  done;
  t.pre_n <- 0;
  t.nt_n <- 0;
  t.clock <- Time.zero

let dirty_bytes t = Hierarchy.dirty_bytes t.hierarchy
let dirty_lines t = Hierarchy.dirty_lines t.hierarchy
let dirty_line_count t = Hierarchy.dirty_line_count t.hierarchy

let persistent_image t =
  let img = Bytes.copy t.image in
  let ls = t.line_size in
  for k = 0 to t.pre_n - 1 do
    Bytes.blit t.pre (k * ls) img (t.pre_line.(k) * ls) ls
  done;
  img

let volatile_image t =
  let img = Bytes.copy t.image in
  (* Write-combining data is newer than any cached line of the same
     address (a non-temporal store flushes the line first). *)
  for i = 0 to t.nt_n - 1 do
    Bytes.blit t.nt_val (8 * i) img t.nt_addr.(i) 8
  done;
  img

let peek_u64 t ~addr =
  let line = addr / t.line_size in
  let k = t.slot_of_line.(line) in
  if k < 0 && (addr + 7) / t.line_size = line then Bytes.get_int64_le t.image addr
  else begin
    let b = Bytes.create 8 in
    blit_persistent t ~addr ~len:8 b ~dst_off:0;
    Bytes.get_int64_le b 0
  end

(* Raw-state accessors for the waypoint snapshots of the incremental
   checker: they read the three state components the tap's op log
   replays over, without charging time or publishing events. *)

let overlay_lines t =
  let ls = t.line_size in
  List.init t.pre_n (fun k ->
      let line = t.pre_line.(k) in
      (line, Bytes.sub t.image (line * ls) ls))

let pending_nt t =
  List.init t.nt_n (fun i -> (t.nt_addr.(i), Bytes.get_int64_le t.nt_val (8 * i)))

let blit_backing t ~addr ~len dst ~dst_off =
  check_range t addr len;
  blit_persistent t ~addr ~len dst ~dst_off

let load_backing t ~addr src =
  let len = Bytes.length src in
  check_range t addr len;
  (* Cached state overlapping the range is now stale and must not be
     written back over the freshly loaded bytes: each overlapping line
     falls back to its persistent bytes, then takes the loaded ones. *)
  if len > 0 then begin
    let ls = t.line_size in
    for line = addr / ls to (addr + len - 1) / ls do
      let k = t.slot_of_line.(line) in
      if k >= 0 then begin
        Bytes.blit t.pre (k * ls) t.image (line * ls) ls;
        drop_slot t k
      end
    done
  end;
  Bytes.blit src 0 t.image addr len;
  let kept = ref 0 in
  for i = 0 to t.nt_n - 1 do
    let a = t.nt_addr.(i) in
    if a < addr || a >= addr + len then begin
      t.nt_addr.(!kept) <- a;
      Bytes.blit t.nt_val (8 * i) t.nt_val (8 * !kept) 8;
      incr kept
    end
  done;
  t.nt_n <- !kept
