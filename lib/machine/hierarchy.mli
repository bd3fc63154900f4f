(** A multi-level, inclusive, write-back cache hierarchy.

    The hierarchy models *which lines are cached and which are dirty*, and
    charges access latencies; line contents are owned by the backing store,
    which is notified through [on_writeback] whenever a dirty line leaves
    the hierarchy (LLC eviction, [clflush], [flush_all]). A power failure
    is modelled by {!drop_volatile}, which discards all cache state with
    {e no} write-back — exactly the data loss the paper's flush-on-fail
    save path exists to prevent.

    Inclusion is maintained by back-invalidating upper levels when a lower
    level evicts, merging dirty bits downwards, so the set of dirty lines
    reported by {!dirty_lines} is exact. *)

open Wsp_sim

type config = {
  levels : Cache.config list;  (** Ordered L1 first; all share a line size. *)
  memory_latency : Time.t;  (** Memory read latency on LLC miss. *)
  memory_bandwidth : Units.Bandwidth.t;  (** Read/fill bandwidth. *)
  memory_write_bandwidth : Units.Bandwidth.t;
      (** Write-back bandwidth. Equal to [memory_bandwidth] for DRAM;
          much lower for SCMs such as phase-change memory (§6) — see
          {!Scm}. *)
  nt_store_latency : Time.t;
      (** Amortised cost of a write-combining non-temporal store of one
          line. *)
  fence_latency : Time.t;  (** Cost of [mfence]/WC-buffer drain. *)
  clflush_issue : Time.t;  (** Per-line issue cost of [clflush]. *)
  wbinvd_line_walk : Time.t;
      (** Per-line tag-walk cost of [wbinvd] (paid for {e every} line slot,
          dirty or not — this is what makes wbinvd time flat in the number
          of dirty lines, cf. Figure 8). *)
}

type op =
  | Op_store of { line : int }  (** A cached store dirtied [line]. *)
  | Op_writeback of { line : int; explicit : bool }
      (** A dirty [line] left the hierarchy. [explicit] for flush
          instructions and NT-store displacement; [false] for silent
          capacity evictions — the distinction the static persistency
          analyzer needs, since only explicit write-backs are ordering
          points a program may rely on. *)
  | Op_fence  (** An [mfence] was executed (whether or not it drains). *)
(** The machine-level persistency-op stream, beneath the {!Wsp_nvheap}
    event bus: the hierarchy is the only component that knows when
    dirty lines silently leave the caches. *)

type t

val create : ?on_writeback:(line:int -> explicit:bool -> unit) -> config -> t
(** [on_writeback] is the backing store's data path — where dirty bytes
    go when a line leaves the hierarchy ([explicit] distinguishes flush
    instructions and NT displacement from silent capacity evictions).
    Fixed at creation: it is wiring, not an observation hook —
    observers subscribe to {!ops} instead. *)

val config : t -> config
val line_size : t -> int

val config_line_size : config -> int
(** The shared line size of a (non-empty) level list, without building
    the hierarchy — lets a caller size line buffers before {!create}. *)

val ops : t -> op Wsp_events.Bus.t
(** The persistency-op bus. Both silent capacity evictions and explicit
    flushes publish [Op_writeback] here — one path, any number of
    subscribers; an unobserved hierarchy builds no op and pays one
    branch per op. *)

val load : t -> addr:int -> Time.t
(** Reads one word; returns the charged latency. *)

val store : t -> addr:int -> Time.t
(** Writes one word through the cache (write-allocate), dirtying a line. *)

val store_nt : t -> addr:int -> Time.t
(** Non-temporal store: the touched line is flushed from the hierarchy if
    present and the write goes straight to the backing store (the caller
    performs the actual data write after this returns). *)

val fence : t -> Time.t
(** [mfence]: orders and drains write-combining buffers. *)

val clflush : t -> addr:int -> Time.t
(** Flushes one line: written back if dirty, invalidated everywhere. *)

val flush_lines : t -> addr:int -> len:int -> Time.t
(** [clflush] over every line of the byte range [\[addr, addr+len)]. *)

val flush_all : t -> Time.t
(** [wbinvd]: writes back every dirty line and invalidates every level.
    Cost = full tag walk + dirty write-back at memory bandwidth. *)

val drop_volatile : t -> unit
(** Power failure: all cache state vanishes, nothing is written back. *)

val dirty_lines : t -> int list
(** De-duplicated union of dirty lines across levels. O(dirty lines),
    via each level's intrusive dirty index. *)

val iter_dirty : t -> (int -> unit) -> unit
(** Applies the callback to the de-duplicated dirty-line union without
    building a list. The callback must not mutate the hierarchy. *)

val dirty_line_count : t -> int
(** Number of distinct dirty lines; O(dirty lines). *)

val dirty_bytes : t -> int
(** [dirty_line_count * line_size]. O(dirty lines) — this is polled
    inside residual-energy-window and protocol loops, where the former
    fold over every way of every level slot dominated simulation time. *)

val dirty_bytes_slow : t -> int
(** The former O(total line slots) poll, kept as the baseline for the
    dirty-poll microbenchmark; not for production callers. *)

val resident_lines : t -> int
val total_line_slots : t -> int

type snapshot
(** Full tag state of every level (see {!Cache.snapshot}). Metric
    counters are {e not} part of a snapshot: they describe work
    performed, and keep accumulating across a {!restore}. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** Rewinds every level to the snapshot in place; requires the same
    level geometry the snapshot was taken from. *)
