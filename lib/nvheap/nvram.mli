(** Byte-addressable simulated NVRAM behind a write-back cache hierarchy.

    This is the mechanism that makes crash experiments honest: ordinary
    stores dirty cache lines and only reach the persistent bytes on
    cache eviction, [clflush], [wbinvd], or a drained non-temporal
    store. {!crash} discards dirty lines and any undrained
    write-combining data — afterwards readers see exactly what had
    actually reached NVRAM, which is what recovery code must cope with.

    {b Memory model.} The NVRAM keeps one flat image: the volatile view,
    every byte as running software reads it. Before a line's first
    cached store it saves that line's persistent bytes, the line's
    {e crash pre-image}. A hierarchy write-back drops the pre-image (the
    image already holds the bytes that reach NVRAM); {!crash} copies
    every pre-image back into the image. A drained non-temporal store
    is persistent at once: it goes into the line's pre-image when the
    line has one — software keeps reading the cached line, which hides
    it until the line is written back or lost — and into the image
    otherwise. Undrained non-temporal stores are invisible to reads. So
    the persistent view is the image with the pre-images patched in,
    and there is no second full-size buffer. A word access is a bounds
    check, one hierarchy call and one load or store on the image; it
    hashes nothing and allocates nothing beyond a read's boxed [int64]
    unless a tap or a dense bus subscriber is attached.

    {b Aliasing an NVDIMM.} With [~backing], the image {e is} the given
    buffer, so the buffer holds the volatile view: it equals the
    persistent bytes exactly when no line has a pre-image, i.e. when no
    cached store is outstanding. [Wsp_core.System] aliases its NVDIMM's
    DRAM this way, and every NVDIMM save reads it in that state: the
    host save runs after {!wbinvd}, and a power failure calls {!crash}
    before the emergency save.

    Every operation charges simulated time to the NVRAM's clock, giving
    the performance side of the evaluation. Addresses are byte offsets in
    [\[0, size)]. *)

open Wsp_sim

type t

val create :
  ?hierarchy:Wsp_machine.Hierarchy.config ->
  ?backing:Bytes.t ->
  size:Units.Size.t ->
  unit ->
  t
(** The default hierarchy is one hardware thread of the paper's Intel
    C5528 testbed. When [backing] is given it becomes the image (it must
    be at least [size] bytes, and {!size} is its full length) — this is
    how a machine aliases its NVRAM onto an NVDIMM's DRAM; see the
    aliasing invariant above. *)

val size : t -> int
val line_size : t -> int

val hierarchy : t -> Wsp_machine.Hierarchy.t
(** The cache hierarchy behind this NVRAM — exposed so machine-level
    instrumentation can subscribe to its {!Wsp_machine.Hierarchy.ops}
    persistency-op bus directly. Write-backs are already bridged onto
    {!bus} as [Wb] events, so most observers never need this. *)

val clock : t -> Time.t
(** Simulated time consumed by memory operations so far. *)

val reset_clock : t -> unit

val charge : t -> Time.t -> unit
(** Adds non-memory work (computation, bookkeeping) to the clock. *)

(** {1 Cached accesses} *)

val read_u64 : t -> addr:int -> int64
val write_u64 : t -> addr:int -> int64 -> unit
val read_u8 : t -> addr:int -> int
val write_u8 : t -> addr:int -> int -> unit
val read_bytes : t -> addr:int -> len:int -> Bytes.t
val write_bytes : t -> addr:int -> Bytes.t -> unit

(** {1 Non-temporal path}

    Non-temporal stores bypass the cache through write-combining buffers.
    They are {e not} durable until a {!fence} drains them: a crash before
    the fence discards undrained data. *)

val write_u64_nt : t -> addr:int -> int64 -> unit
val fence : t -> unit
val pending_nt_bytes : t -> int

(** {1 Flushes} *)

val clflush : t -> addr:int -> unit
(** Synchronously writes back and invalidates one line (latency-bound:
    issue cost plus a memory write round-trip when dirty). *)

val flush_range : t -> addr:int -> len:int -> unit
val wbinvd : t -> unit

(** {1 The persistency event bus}

    The instrumentation interface the crash-consistency checker, the
    metrics bridge and the static analyzer are built on: every primitive
    that can change (or fail to change) what a power failure preserves
    publishes itself {e before} mutating any state, so a subscriber that
    raises models a crash exactly between two stores. Reads are not
    announced — they cannot alter the persistent image. *)

type event = Event.mem =
  | Store of { addr : int; len : int }  (** Cached write (dirties lines). *)
  | Store_nt of { addr : int }  (** 8-byte non-temporal store. *)
  | Fence  (** WC-buffer drain point. *)
  | Clflush of { addr : int }
  | Flush_range of { addr : int; len : int }
  | Wbinvd
(** An equation onto {!Event.mem}: this NVRAM's events arrive on {!bus}
    wrapped as [Event.Mem]. *)

val bus : t -> Event.t Wsp_events.Bus.t
(** The unified persistency event bus for this NVRAM and everything
    layered on it: {!Rawlog}, {!Txn} and {!Alloc} publish their
    annotations here too, and hierarchy write-backs arrive as [Wb]
    events. Any number of observers may subscribe concurrently; a
    subscriber's exception aborts the announced primitive with no state
    change. Every emitter builds its event only when the bus is
    {!Wsp_events.Bus.active}, and the per-word [Store], [Store_nt] and
    [Wb] events only when it is {!Wsp_events.Bus.dense}: an unobserved
    primitive, or one watched only by sparse subscribers such as the
    metrics bridge, pays a branch and allocates nothing. *)

(** {1 Fault injection} *)

type fault =
  | No_fault
  | Broken_fence
      (** [fence] charges latency but never drains write-combining
          buffers, silently breaking every durable log append — the
          sabotage the checker must detect. [wbinvd] still drains (the
          flush-on-fail path is separate hardware). *)

val set_fault : t -> fault -> unit
val fault : t -> fault

(** {1 Access budgets}

    A bound on cached accesses, for callers that walk state of unknown
    integrity: post-crash recovery and the checker's oracles can be
    handed a structure whose torn pointers form a cycle, and an
    unmetered traversal would never terminate. Every budgeted access is
    one {!read_u64}/{!write_u64}-style primitive (multi-line ranges
    count once); with no budget set the cost is a single branch. *)

exception Budget_exhausted
(** Raised by the access that would exceed the configured budget, before
    it mutates or charges anything. *)

val set_step_budget : t -> int option -> unit
(** [set_step_budget t (Some n)] allows [n] further cached accesses;
    [None] (the initial state) removes the limit. Raises
    [Invalid_argument] on a negative budget. *)

(** {1 Failure} *)

val crash : t -> unit
(** Power failure: dirty lines and undrained non-temporal data vanish;
    the clock resets (a new execution begins at restore). *)

val dirty_bytes : t -> int
val dirty_lines : t -> int list

val dirty_line_count : t -> int
(** Distinct dirty lines in the hierarchy; O(dirty lines) like
    {!dirty_bytes} — save-path and protocol loops poll this per step. *)

val persistent_image : t -> Bytes.t
(** A copy of the persistent bytes only — the image with every crash
    pre-image patched in: what would survive a crash right now. Test
    instrumentation; charges no time. *)

val volatile_image : t -> Bytes.t
(** The full logical contents as running software sees them: the image
    (persistent bytes overlaid with dirty cache lines) plus undrained
    write-combining data — exactly what a flush-on-fail save must make
    persistent. Test/checker instrumentation; charges no time. *)

val peek_u64 : t -> addr:int -> int64
(** Reads the persistent bytes directly, ignoring cached dirty data.
    Test and recovery instrumentation; charges no time. *)

(** {1 The replay tap}

    A synchronous observer of every {e data} mutation, in exact
    chronological order — the raw material of the incremental
    crash-point checker. The event bus cannot serve this purpose: events
    are published {e before} the primitive mutates anything and carry no
    payload, whereas replaying a crash prefix needs the bytes and the
    exact moment they land. The tap reports the state as three
    components — persistent backing bytes, a dirty-overlay of whole
    lines, and the write-combining queue — which is how the checker's
    {!Wsp_check.Replay} rebuilds it; the overlay lines are the lines
    that hold a crash pre-image. At most one tap may be attached; with
    none, each mutation pays a single branch. *)

type tap = {
  on_slice : addr:int -> data:Bytes.t -> unit;
      (** [data] was just written to the dirty overlay at [addr]. Spans
          a single cache line by construction (multi-line stores fire
          once per line, interleaved with any evictions they cause).
          The callback owns [data]. *)
  on_nt : addr:int -> v:int64 -> unit;
      (** An 8-byte non-temporal store was appended to the
          write-combining queue. *)
  on_wb : line:int -> data:Bytes.t -> unit;
      (** [line]'s dirty-overlay contents are being written back to
          backing and dropped from the overlay. [data] is a fresh copy
          owned by the callback. *)
  on_drain : unit -> unit;
      (** The write-combining queue was flushed to backing (a drained
          {!fence} or {!wbinvd}). *)
}

val set_tap : t -> tap option -> unit
(** Attaches or detaches the tap. Raises [Invalid_argument] when a tap
    is already attached and [Some _] is given. *)

(** {1 Raw-state accessors}

    Charge no time, publish no events; used by the incremental checker's
    waypoint snapshots. *)

val overlay_lines : t -> (int * Bytes.t) list
(** Copies of the image's lines that hold a crash pre-image (the dirty
    overlay), as [(line, data)] pairs in unspecified order. *)

val pending_nt : t -> (int * int64) list
(** The write-combining queue, oldest first. *)

val blit_backing : t -> addr:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Copies [len] persistent bytes at [addr] into [dst]. *)

val load_backing : t -> addr:int -> Bytes.t -> unit
(** Writes [src] directly into the persistent bytes at [addr] — a
    DMA-style load, as when a shipped heap image is adopted by a node.
    Cached state overlapping the range (whole dirty-overlay lines,
    pending non-temporal stores) is invalidated, not written back: an
    overlapping line's bytes outside the range revert to their
    persistent contents. Charges no time and publishes no events. *)
