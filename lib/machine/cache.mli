(** A single set-associative cache level.

    The cache tracks tag state only (presence, dirty bit, LRU age); line
    contents live with the memory image, which keeps a crash pre-image
    of every line a cached store has dirtied (see {!Wsp_nvheap.Nvram}).
    Addresses and line numbers are non-negative; the cache works
    internally in line numbers ([addr / line_size]).

    The tag store is struct-of-arrays: one [int array] of tags (-1 =
    invalid), one of LRU ages, one dirty byte per way, and the dirty
    ways threaded into an index-linked list in dirtying order. Lookups,
    inserts, evictions and the dirty polls allocate nothing; per-cache
    counters plus the dirty list make {!dirty_count}, {!resident_count},
    {!dirty_lines} and {!iter_dirty} O(dirty lines) rather than a fold
    over every way of every set. The flush-on-fail protocol and
    residual-energy-window loops poll these on every simulated step, and
    every simulated memory access probes the tags. *)

open Wsp_sim

type config = {
  name : string;  (** e.g. ["L1d"]. *)
  size : Units.Size.t;
  line_size : int;
  associativity : int;
  hit_latency : Time.t;
}

type t

val create : config -> t
val config : t -> config

val line_count : t -> int
(** Total capacity in lines. *)

val line_of_addr : t -> int -> int

type victim = private int
(** An evicted line and its dirty bit, packed into an immediate so that
    a miss allocates nothing. *)

val no_victim : victim
val victim_line : victim -> int
val victim_dirty : victim -> bool

val probe : t -> line:int -> bool
(** [probe t ~line] is [true] on hit, updating LRU recency. *)

val contains : t -> line:int -> bool
(** Like {!probe} but without touching LRU state. *)

val insert : t -> line:int -> dirty:bool -> victim
(** Allocates [line]; when the target set is full the LRU way is evicted
    and returned, otherwise the result is {!no_victim}. Inserting a line
    already present merges the dirty flag instead. The way filled is an
    invalid one if the set has any, else the least recently used; ties
    go to the lower way. *)

val set_dirty : t -> line:int -> unit
(** Marks a (present) line dirty. No-op if the line is absent. *)

val is_dirty : t -> line:int -> bool

val invalidate : t -> line:int -> bool
(** Drops the line if present; [true] iff it was present and dirty. *)

val dirty_lines : t -> int list
(** O(dirty); lines in most-recently-dirtied-first order. *)

val iter_dirty : t -> (int -> unit) -> unit
(** [iter_dirty t f] applies [f] to every dirty line, oldest first,
    without allocating. [f] must not mutate [t]. *)

val dirty_count : t -> int
(** O(1), maintained incrementally. *)

val resident_count : t -> int
(** O(1), maintained incrementally. *)

val dirty_lines_slow : t -> int list
val dirty_count_slow : t -> int
val resident_count_slow : t -> int
(** Brute-force fold references for the incremental bookkeeping above —
    used by the invariant tests and the before/after microbenchmarks;
    not for production callers. *)

type snapshot
(** An immutable copy of the full tag state: per-way contents, LRU
    clock, and the dirty list's exact ordering (observable through the
    write-back order of {!iter_dirty}). *)

val snapshot : t -> snapshot
(** O(total slots) copy of the tag-store arrays, dirty links included. *)

val restore : t -> snapshot -> unit
(** Rewinds [t] to a prior {!snapshot} in place. The snapshot must come
    from a cache of the same geometry ([Invalid_argument] otherwise);
    after restore the cache is indistinguishable from its state at
    snapshot time, including dirty-line iteration order. *)

val clear : t -> unit
(** Invalidates everything without reporting write-backs; callers that
    need write-back semantics must consume {!dirty_lines} first. *)
