(** A typed, multi-subscriber event bus.

    The publish side is built for instrumentation points on simulation
    hot paths. Subscribers are held in a flat array rebuilt on
    (un)subscribe, so dispatch is a tight loop over immutable state and
    the subscribe path may be as slow as it likes. With no subscriber
    attached, {!publish} itself is one load and one branch — but an
    event carrying a payload is allocated by the caller {e before} the
    call, so a hot emitter guards construction with {!active} (or
    {!dense}, for high-rate events) and pays one branch and no
    allocation when nobody listens:
    {[ if Bus.active bus then Bus.publish bus (Ev { addr; len }) ]}

    Subscriptions are {e scoped}: {!subscribe} returns a handle and
    {!unsubscribe} removes exactly that handle, leaving every other
    subscriber attached — unlike the single-slot [set_hook] style it
    replaces, where a second observer silently clobbered the first.
    Subscribers run in subscription order.

    Exceptions raised by a subscriber propagate to the publisher and
    skip the remaining subscribers. This is load-bearing: the
    crash-consistency checker's injected observer raises to model a
    power failure {e before} the announced primitive takes effect, and
    the bus must not swallow or reorder that. *)

type 'a t
(** A bus carrying events of type ['a]. *)

type subscription
(** A handle for one attached subscriber; detach it with
    {!unsubscribe}. *)

val create : unit -> 'a t

val publish : 'a t -> 'a -> unit
(** Delivers the event to every subscriber in subscription order.
    A no-op when nobody is subscribed (the event value has already been
    built, though — see {!active}). A subscriber exception propagates;
    later subscribers are skipped. *)

val subscribe : ?sparse:bool -> 'a t -> ('a -> unit) -> subscription
(** Attaches a subscriber after all current ones. Composes: existing
    subscriptions are untouched.

    [~sparse:true] (default [false]) declares that the subscriber
    ignores the high-rate events emitters guard with {!dense} (per-word
    stores, write-backs): while only sparse subscribers are attached
    those events are not built at all. A sparse subscriber still
    receives them whenever a dense one is attached, so it must not
    depend on their presence or absence. *)

val active : 'a t -> bool
(** [subscriber_count t > 0]: the guard for building an event. *)

val dense : 'a t -> bool
(** Some non-sparse subscriber is attached: the guard for building a
    high-rate event. *)

val unsubscribe : subscription -> unit
(** Detaches exactly this subscription; other subscribers keep
    receiving events. Idempotent. *)

val subscriber_count : 'a t -> int

val with_subscriber : 'a t -> ('a -> unit) -> (unit -> 'b) -> 'b
(** [with_subscriber bus f body] runs [body] with [f] subscribed,
    unsubscribing on return or exception. *)
