(** The per-site protocol decisions both engines share (DESIGN.md §4l).

    Every HyperFile site runs one algorithm.  The simulator
    ({!Cluster}) and the TCP engine ([Hf_net.Tcp_site]) are drivers
    around this module: they move messages, charge time, count events
    and hold locks, while cache routing, result bookkeeping, peer
    summary knowledge with its Bloofi leaves, the planner's front end
    and scatter seeding are decided here once.

    Nothing here does I/O, reads a clock or touches credit: time comes
    in as [~now], placement as [~locate], planner unit costs as
    [~costs], and each decision comes back as a value the driver counts
    and traces its own way. *)

type exec_mode =
  | Exec_ship  (** the paper's protocol: work items follow the pointer chain. *)
  | Exec_scatter
      (** single-round scatter-gather whenever the program is eligible
          (no finite iterators) and some site is predicted. *)
  | Exec_auto
      (** per-query cost-based choice ({!Hf_query.Plan.decide}); see
          doc/execution_modes.md. *)

type t
(** One site's long-lived knowledge: its remote-answer cache, its own
    summary memo, what it learned about each peer, its Bloofi tree and
    its locality memo. *)

val create :
  self:int ->
  cache:Hf_index.Remote_cache.config option ->
  bloofi:bool ->
  bloofi_depth:Hf_obs.Histogram.t ->
  t
(** [cache = None]: items always ship and no summary is built or
    learned.  [bloofi] indexes learned peer summaries in a
    {!Hf_index.Bloofi} tree; each descent's depth goes to
    [bloofi_depth]. *)

val cache_entries : t -> int

val bloofi_count : (Hf_index.Bloofi.t -> int) -> t -> int
(** A Bloofi tree counter, 0 without a tree. *)

val epoch : t -> int
(** This site's summary epoch, carried on every [Cache_version]. *)

val learned : t -> peer:int -> (int * Hf_index.Bloom.t) option
(** The (store version, summary) last learned from [peer]. *)

(** {1 Result bookkeeping} *)

type results = {
  mutable oids : Hf_data.Oid.t list;  (** newest first *)
  mutable set : Hf_data.Oid.Set.t;
  merged : (string, Hf_data.Value.t list) Hashtbl.t;  (** bindings by target *)
}
(** The originator's final answer. *)

val results : unit -> results

val add_final : results -> Hf_data.Oid.t -> unit

val add_bindings : results -> (string * Hf_data.Value.t list) list -> unit
(** Append each target's values to what it already holds. *)

type query = {
  plan : Hf_engine.Plan.t;
  origin : int;
  final : results option;  (** [Some] exactly at the originator *)
  mutable local_result_set : Hf_data.Oid.Set.t;
  mutable result_buffer : Hf_data.Oid.t list;  (** to ship, newest first *)
  bindings : (string, Hf_data.Value.t list) Hashtbl.t;  (** emission buffer *)
  validated : (int, int) Hashtbl.t;  (** dst -> store version vouched *)
  validating : (int, unit) Hashtbl.t;  (** dst with a [Cache_validate] in flight *)
  parked : (int, Hf_engine.Work_item.t list) Hashtbl.t;
      (** dst -> items awaiting validation, newest first; their credit
          is unsplit, so [parked_count] must hold the drain open *)
  mutable parked_count : int;
  mutable answers : (Hf_engine.Work_item.t * bool) list;
      (** verdicts computed here for the originator's cache *)
  mutable answers_version : int;
  mutable scatter : Hf_engine.Scatter.Stitch.t option;
      (** the originator's stitch; holds the drain open while gathers
          are outstanding *)
}
(** One query's state at one site, as the shared decisions see it. *)

val query : Hf_engine.Plan.t -> origin:int -> final:results option -> query

val add_result : query -> Hf_data.Oid.t -> unit
(** A passing object, recorded once per site: into [final] at the
    originator, into [result_buffer] elsewhere. *)

val emit : query -> target:string -> Hf_data.Value.t list -> unit
(** The evaluator's [~emit] callback. *)

val flush_bindings : query -> unit
(** At the originator, move the emission buffer into [final]. *)

val take_results : query -> Hf_data.Oid.t list * (string * Hf_data.Value.t list) list
(** Empty both buffers for a result message, items oldest first. *)

val apply_stitched : query -> Hf_engine.Scatter.Stitch.outcome -> unit
(** The results and bindings of a stitch outcome; routing its
    [fallback] chains is the driver's job. *)

(** {1 Cache routing} *)

type verdict =
  | Ship  (** no cache question applies: send the item. *)
  | Miss of { invalidated : bool }
      (** nothing usable cached ([invalidated]: an entry for another
          version was evicted): send the item. *)
  | Hit of bool  (** answered from the cache, result recorded. *)
  | Pruned  (** the destination's summary proves the item dies there. *)
  | Parked of { validate : bool }
      (** waiting for the destination's version; [validate]: first
          such item, the driver sends [Cache_validate]. *)

val route :
  t -> query -> now:float -> can_serve:bool -> dst:int -> Hf_engine.Work_item.t -> verdict
(** Route one remote-bound item: [Ship] with the cache off, {!resolve}
    toward a validated destination, [Parked] otherwise.  [can_serve]:
    whether the driver may answer a hit locally (counting result modes
    credit results to the site that found them, so they may not). *)

val resolve :
  t ->
  query ->
  now:float ->
  can_serve:bool ->
  dst:int ->
  version:int ->
  Hf_engine.Work_item.t ->
  verdict
(** Decide an item at [dst]'s validated [version]: prune only against a
    summary learned for exactly that version, then consult the cache.
    Never [Parked]. *)

val unpark : query -> dst:int -> version:int option -> Hf_engine.Work_item.t list
(** Settle [dst]'s validation ([Some version] marks it validated, [None]
    means the round trip gave up) and return its parked items in
    arrival order. *)

val drop_parked : query -> unit
(** Forget parked items and validations in flight (eviction). *)

val record_answer : t -> query -> Hf_data.Store.t -> Hf_engine.Work_item.t -> passed:bool -> unit
(** Keep an evaluated item's verdict for the originator's cache when the
    cache is on, this is not the originator and the item is cacheable;
    verdicts from an older store version are dropped. *)

val take_answers : query -> (int * (Hf_engine.Work_item.t * bool) list) option
(** The kept verdicts and their store version, oldest first. *)

val fill :
  t -> query -> now:float -> peer:int -> version:int -> (Hf_engine.Work_item.t * bool) list -> int
(** Cache verdicts [peer] computed at [version]; returns how many. *)

(** {1 Peer knowledge} *)

val own_summary : t -> Hf_data.Store.t -> Hf_index.Bloom.t option
(** This site's tuple summary, memoized per store version; [None] with
    the cache off. *)

val answer_validate : t -> Hf_data.Store.t -> peer:int -> int * Hf_index.Bloom.t option
(** Answer [peer]'s [Cache_validate]: the store version, plus the
    summary unless [peer] was told this version's already.  A
    recompute bumps {!epoch}. *)

val learn : t -> peer:int -> version:int -> epoch:int -> Hf_index.Bloom.t option -> unit
(** Learn from a [Cache_version] reply.  An epoch regression (the peer
    restarted) drops the peer's summary, its Bloofi leaf and every
    verdict cached against it.  A summary is stored and indexed.  No
    summary (or one that did not decode) at a version other than the
    held one's drops that summary and its leaf. *)

(** {1 The planner's front end} *)

val plan_decision :
  t ->
  locate:(Hf_data.Oid.t -> int) ->
  store:Hf_data.Store.t ->
  peers:(int * (int option * Hf_index.Bloom.t option)) list ->
  costs:(item_bytes:int -> p_local:float -> Hf_query.Plan.costs) ->
  Hf_query.Program.t ->
  Hf_data.Oid.t list ->
  Hf_query.Plan.decision
(** Price both modes for the program over the initial oids.  [peers]
    gives each candidate's (object count, summary) as the driver knows
    them; the Bloofi leaves are synced to those summaries before one
    descent answers the landing verdicts.  [p_local] is the share of
    this store's pointers that stay on-site. *)

val requery_sites :
  t ->
  peers:(int * (int option * Hf_index.Bloom.t option)) list ->
  Hf_engine.Plan.t ->
  int list ->
  int list
(** Filter a re-query broadcast through the Bloofi tree: indexed sites
    whose summary misses the first filter go; the rest stay. *)

val choose :
  exec_mode ->
  can_scatter:bool ->
  (unit -> Hf_query.Plan.decision) ->
  Hf_query.Plan.decision option * int list option
(** The planner's decision (none under [Exec_ship]) and, when the
    query should scatter, the sites to scatter to.  [can_scatter]:
    whether the driver's configuration supports scatter at all. *)

(** {1 Scatter seeding} *)

val scatter_seed :
  query ->
  locate:(Hf_data.Oid.t -> int) ->
  sites:int list ->
  Hf_data.Oid.t list ->
  (int -> Hf_data.Oid.t list) * Hf_data.Oid.t list
(** Partition the seeds over the originator and [sites] and open the
    stitch as [scatter].  Returns each member's roots and the strays
    (seeds outside the members, to ship classically). *)

val gather : query -> site:int -> Hf_engine.Scatter.node list -> Hf_engine.Scatter.Stitch.outcome
(** Stitch in [site]'s gather (the originator's own domain included);
    an empty outcome when no scatter round is open. *)
