(* A real HyperFile site over TCP.

   This is the paper's Section 3.2 protocol on actual sockets — the same
   wire messages ([Hf_proto.Message], binary codec, length framing) that
   the simulator accounts for, exchanged between OS processes or threads.
   Every site runs the identical algorithm: per-query contexts, local
   engine processing, query shipping on remote dereferences, results
   flowing straight to the originator, weighted-message termination with
   credit piggybacked on result messages.

   Threading model (per site):
   - an accept thread takes incoming connections;
   - one reader thread per connection reassembles frames, decodes
     messages, and handles them under the site's state lock;
   - one writer thread per outbound connection drains a send queue, so
     a handler never blocks on a peer's socket (no send/receive
     deadlock);
   - [submit_query] (called by the embedding client on the originating
     site) seeds the query through the admission gate and returns a
     handle; a per-query drainer thread processes the working set in
     bounded slices, releasing the site lock between slices so
     concurrent queries interleave.  [await] waits on a condition
     variable until the origin's detector recovers all credit, or a
     timeout expires (crashed peers then yield partial results, per the
     paper's "partial results are better than none").  [run_query] is
     submit + await.

   Concurrency (DESIGN.md §4h): any number of queries may be live at
   once.  Shared per-link state needs no per-query keying — reliable
   seq/ack and dedup are link-scoped by design (they protect frames,
   not queries), the remote-answer cache is keyed by (destination,
   plan, item) which is already query-independent, and work batchers
   are per-drain locals so batches never mix queries on this engine.
   The admission gate ([Hf_server.Sched]) caps in-flight queries per
   origin and queues the rest fairly. *)

module Message = Hf_proto.Message
module Credit = Hf_termination.Credit
module Sched = Hf_server.Sched
module Site_core = Hf_server.Site_core

let src = Logs.Src.create "hf.net" ~doc:"HyperFile TCP transport"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- outbound connections: queue + writer thread --- *)

type out_conn = {
  fd : Unix.file_descr;
  queue : string Queue.t; [@hf.guarded_by "conn_locked"]
  queue_mutex : Mutex.t;
  queue_cond : Condition.t;
  closing : bool ref; [@hf.guarded_by "conn_locked"]
  broken : bool ref; [@hf.guarded_by "conn_locked"]
      (* the writer thread hit a socket error: frames queued here are
         lost, and the connection must be replaced before this peer can
         be written to again *)
  mutable writer : Thread.t option;
}

let conn_locked conn f =
  Mutex.lock conn.queue_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.queue_mutex) f

let writer_loop conn () =
  let rec next () =
    let item =
      conn_locked conn (fun () ->
          while Queue.is_empty conn.queue && not !(conn.closing) do
            Condition.wait conn.queue_cond conn.queue_mutex
          done;
          if Queue.is_empty conn.queue then None else Some (Queue.pop conn.queue))
    in
    match item with
    | None -> () (* closing *)
    | Some frame -> (
        match
          let bytes = Bytes.of_string frame in
          let rec write_all off =
            if off < Bytes.length bytes then
              let n = Unix.write conn.fd bytes off (Bytes.length bytes - off) in
              write_all (off + n)
          in
          write_all 0
        with
        | () -> next ()
        | exception Unix.Unix_error _ ->
          (* peer gone; drop remaining output and mark the connection so
             the next send replaces it (and, with reliability on, the
             retransmit path re-delivers what this queue lost) *)
          conn_locked conn (fun () -> conn.broken := true))
  in
  next ()

let open_out_conn addr =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.setsockopt fd TCP_NODELAY true;
  let conn =
    {
      fd;
      queue = Queue.create ();
      queue_mutex = Mutex.create ();
      queue_cond = Condition.create ();
      closing = ref false;
      broken = ref false;
      writer = None;
    }
  in
  conn.writer <- Some (Thread.create (writer_loop conn) ());
  conn

let conn_send conn frame =
  conn_locked conn (fun () ->
      Queue.push frame conn.queue;
      Condition.signal conn.queue_cond)

(* A writer thread that refuses to die (blocked in a signal handler,
   say) should not make shutdown raise: the join failure is counted in
   [join_errors] — surfaced as hf.net.join_errors — and the socket is
   closed regardless. *)
let conn_close ~join_errors conn =
  conn_locked conn (fun () ->
      conn.closing := true;
      Condition.signal conn.queue_cond);
  (match conn.writer with
  | Some thread -> ( try Thread.join thread with _ -> Atomic.incr join_errors)
  | None -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* --- execution mode (doc/execution_modes.md) --- *)

type exec_mode = Site_core.exec_mode = Exec_ship | Exec_scatter | Exec_auto

(* --- per-query state --- *)

(* Every mutable part of a context is owned by the site lock: handlers
   and [run_query] only touch contexts inside [locked]. *)
type context = {
  q : Site_core.query; [@hf.guarded_by "locked"]
      (* the shared per-query decision state: results, cache routing,
         the stitch *)
  span : int; (* this site's evaluation span for the query *)
  marks : Hf_engine.Mark_table.t;
  work : Hf_engine.Work_item.t Hf_util.Deque.t; [@hf.guarded_by "locked"]
  stats : Hf_engine.Stats.t;
  mutable held : Credit.t; [@hf.guarded_by "locked"]
      (* weighted-termination credit at this site *)
  (* origin-side only *)
  mutable recovered : Credit.t; [@hf.guarded_by "locked"]
  mutable terminated : bool; [@hf.guarded_by "locked"]
  mutable unreachable : int list; [@hf.guarded_by "locked"]
      (* origin-side: sites whose retry budget was exhausted while this
         query ran — the answer is partial with respect to them *)
  (* The credit-return tail is gated on all of [q.parked_count],
     [out_pending] and [draining] so it runs only once every
     remote-bound item is on the wire (or served locally). *)
  mutable out_pending : int; [@hf.guarded_by "locked"]
      (* items buffered in some live [process_to_drain] batcher *)
  mutable draining : int; [@hf.guarded_by "locked"]
      (* reentrancy depth of [process_to_drain]: a give-up that fires
         mid-drain must not run the credit-return tail under the outer
         drain's feet *)
  mutable ran_mode : Hf_query.Plan.mode; [@hf.guarded_by "locked"]
      (* which execution mode actually ran (origin-side) *)
  mutable decision : Hf_query.Plan.decision option; [@hf.guarded_by "locked"]
      (* the planner's verdict, when a planner ran (origin-side) *)
  (* Per-query transport attribution: site-global counters bleed across
     overlapping queries, so each frame is also charged to its query's
     context and outcomes read these instead of global deltas. *)
  mutable msgs_sent : int; [@hf.guarded_by "locked"]
  mutable bytes_out : int; [@hf.guarded_by "locked"]
  mutable queue_wait_s : float; [@hf.guarded_by "locked"]
      (* origin-side: seconds spent in the admission queue before the
         seed ran; 0 for remotely-introduced contexts *)
  (* origin-side admission / cancellation state *)
  mutable admitted : bool; [@hf.guarded_by "locked"]
  mutable slot_released : bool; [@hf.guarded_by "locked"]
  mutable cancelled : bool; [@hf.guarded_by "locked"]
}

type pending = {
  p_query : Message.query_id;
  p_seed : unit -> unit;
      (* runs under the site lock when the queued query takes a slot *)
}

type t = {
  id : int;
  store : Hf_data.Store.t;
  batch_policy : Hf_proto.Batch.flush_policy;
      (* per-destination work batching; [Flush_at 1] ships one
         Deref_request per item, byte-identical to the original
         protocol *)
  reliability : Hf_proto.Reliable.config option;
      (* ack/retransmit layer; [None] = fire-and-forget (a lost frame or
         crashed peer silently loses messages and their credit) *)
  links : (int, Message.t Hf_proto.Reliable.t) Hashtbl.t; [@hf.guarded_by "locked"]
      (* per-peer reliable-link state, created on first contact *)
  listener : Unix.file_descr;
  address : Unix.sockaddr;
  mutable peers : Unix.sockaddr array; (* index = site id *)
  conns : (int, out_conn) Hashtbl.t; [@hf.guarded_by "locked"]
  lock : Mutex.t; (* guards contexts, store access during queries, conns *)
  done_cond : Condition.t; (* signalled when a local query terminates *)
  contexts : (Message.query_id, context) Hashtbl.t; [@hf.guarded_by "locked"]
  mutable next_serial : int; [@hf.guarded_by "locked"]
  admission : Sched.config;
  gate : pending Sched.t; [@hf.guarded_by "locked"]
      (* admission gate for locally-issued queries (DESIGN.md §4h) *)
  closed : (Message.query_id, unit) Hashtbl.t; [@hf.guarded_by "locked"]
      (* tombstones for evicted queries: late or retransmitted work for
         a query the originator already closed must not resurrect a
         context (its credit is dead — same as a loss).  Bounded FIFO. *)
  closed_order : Message.query_id Queue.t; [@hf.guarded_by "locked"]
  mutable running : bool;
  mutable clock : Thread.t option;
      (* the site clock ([clock_loop]), the one timer thread: shutdown
         joins it before tearing connections down *)
  mutable dead_writers : Thread.t list; [@hf.guarded_by "locked"]
      (* writer threads of connections discarded while the site lock was
         held ([conn_discard]): Thread.join can block, so shutdown joins
         them after the lock is released instead *)
  join_errors : int Atomic.t; (* threads that could not be joined on close *)
  (* observability.  Sites sharing one tracer (same process, as in
     tests and the demo) get cross-site spans: the wire carries the
     sender's span id and the receiver closes it on arrival, so a work
     message's span extends over its real transit.  Separate processes
     each see their own half. *)
  tracer : Hf_obs.Tracer.t;
  registry : Hf_obs.Registry.t;
  sent_frame_bytes : Hf_obs.Histogram.t; (* per-message encoded size *)
  query_rtt : Hf_obs.Histogram.t; (* run_query wall time, seconds *)
  ack_latency : Hf_obs.Histogram.t; (* first-send to cumulative-ack, seconds *)
  (* transport metrics *)
  mutable messages_sent : int; [@hf.guarded_by "locked"]
  mutable bytes_sent : int; [@hf.guarded_by "locked"]
  mutable messages_received : int; [@hf.guarded_by "locked"]
  mutable retransmits : int; [@hf.guarded_by "locked"]
  mutable dup_drops : int; [@hf.guarded_by "locked"]
  mutable acks_sent : int; [@hf.guarded_by "locked"]
  mutable give_ups : int; [@hf.guarded_by "locked"]
  core : Site_core.t; [@hf.guarded_by "locked"]
      (* remote-answer cache, own and learned summaries, Bloofi tree
         (absent when disabled: the planner scans the flat summaries),
         locality memo *)
  (* cache layer counters *)
  mutable cache_hits : int; [@hf.guarded_by "locked"]
  mutable cache_misses : int; [@hf.guarded_by "locked"]
  mutable cache_prunes : int; [@hf.guarded_by "locked"]
  mutable cache_validations : int; [@hf.guarded_by "locked"]
  mutable cache_fills : int; [@hf.guarded_by "locked"]
  mutable cache_invalidations : int; [@hf.guarded_by "locked"]
  (* scatter-gather execution mode (doc/execution_modes.md) *)
  exec : exec_mode;
  mutable scatter_messages : int; [@hf.guarded_by "locked"]
  mutable gather_messages : int; [@hf.guarded_by "locked"]
  mutable gather_nodes : int; [@hf.guarded_by "locked"]
  mutable scatter_fallbacks : int; [@hf.guarded_by "locked"]
  mutable planner_scatter : int; [@hf.guarded_by "locked"]
  mutable planner_ship : int; [@hf.guarded_by "locked"]
  (* cluster-wide stats scraping and monitoring (DESIGN.md §4i) *)
  mutable stats_token : int; [@hf.guarded_by "locked"]
      (* last Stats_pull token issued by this site; replies carrying an
         older token (or 0 — a periodic push) never satisfy a waiting
         [pull_stats] *)
  peer_stats : (int, Hf_obs.Registry.snapshot) Hashtbl.t; [@hf.guarded_by "locked"]
      (* peer -> last registry snapshot received from it *)
  peer_stats_token : (int, int) Hashtbl.t; [@hf.guarded_by "locked"]
      (* peer -> highest pull token that snapshotting has answered *)
  stats_cond : Condition.t; (* signalled when a Stats_report lands *)
  stats_period : float option; (* scrape period, run by the site clock *)
  mutable monitor : Unix.file_descr option;
      (* always-on monitoring surface: a loopback listener that answers
         every connection with a Prometheus text dump of [registry] *)
  admission_wait : Hf_obs.Histogram.t; (* submit-to-seed queue wait, seconds *)
}

let locate oid = Hf_data.Oid.birth_site oid

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Retire a broken connection without joining its writer (R7 fix): the
   caller holds the site lock, and a writer stuck on a dead peer's
   socket would stall every thread that needs the lock if we joined it
   here.  The writer is told to stop and its thread parked in
   [dead_writers]; [shutdown] joins the parked threads once the lock is
   released.  Closing the fd fails any in-flight write immediately. *)
let conn_discard t conn =
  conn_locked conn (fun () ->
      conn.closing := true;
      Condition.signal conn.queue_cond);
  (match conn.writer with
  | Some thread -> t.dead_writers <- thread :: t.dead_writers
  | None -> ());
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())
[@@hf.requires_lock "locked"]

(* --- stats snapshots on the wire (DESIGN.md §4i) --- *)

(* Registry snapshots and wire stats live in different layers — hf_obs
   knows nothing of the protocol and hf_proto nothing of registries —
   so the transport converts between them.  Histograms cross as exact
   shape (count/sum/min/max/buckets); the percentile reservoir stays
   site-local by design. *)
let stats_of_snapshot snapshot =
  List.map
    (fun (name, sampled) ->
      let value =
        match (sampled : Hf_obs.Registry.sampled) with
        | Hf_obs.Registry.Counter_value n -> Message.Stat_counter n
        | Hf_obs.Registry.Gauge_value v -> Message.Stat_gauge v
        | Hf_obs.Registry.Histogram_value h ->
          Message.Stat_histogram
            {
              count = Hf_obs.Histogram.count h;
              sum = Hf_obs.Histogram.sum h;
              vmin = Hf_obs.Histogram.vmin h;
              vmax = Hf_obs.Histogram.vmax h;
              buckets = Hf_obs.Histogram.buckets h;
            }
      in
      { Message.name; value })
    snapshot

(* A histogram the codec accepted but [of_shape] rejects (negative
   count, bucket index out of range — a version-skewed peer) drops that
   one metric, not the whole report. *)
let snapshot_of_stats stats =
  List.filter_map
    (fun { Message.name; value } ->
      match value with
      | Message.Stat_counter n -> Some (name, Hf_obs.Registry.Counter_value n)
      | Message.Stat_gauge v -> Some (name, Hf_obs.Registry.Gauge_value v)
      | Message.Stat_histogram { count; sum; vmin; vmax; buckets } -> (
          match Hf_obs.Histogram.of_shape ~count ~sum ~vmin ~vmax ~buckets () with
          | h -> Some (name, Hf_obs.Registry.Histogram_value h)
          | exception Invalid_argument _ -> None))
    stats
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- sending --- *)

(* The reliable-link state for peer [dst], created on first contact.
   One [Reliable.t] per peer holds both halves of the link: sequencing
   and retransmission for frames we send it, dedup and cumulative acks
   for frames it sends us. *)
let link_for t dst =
  match Hashtbl.find_opt t.links dst with
  | Some link -> link
  | None ->
    let link =
      Hf_proto.Reliable.create (Option.value t.reliability ~default:Hf_proto.Reliable.default)
    in
    Hashtbl.replace t.links dst link;
    link
[@@hf.requires_lock "locked"]

(* One physical transmission attempt: connection management plus frame
   encoding.  [seq] is the reliability sequence number (0 when
   unsequenced — reliability off, or a standalone [Link_ack]); the
   cumulative ack for the reverse direction is peeked immediately
   before the frame leaves, so every outgoing envelope carries the
   freshest ack.  A connection whose writer died is replaced here —
   with reliability on, whatever its queue lost is retransmitted. *)
let transmit_raw t ?(span = 0) ~seq ~dst message =
  let reopen () =
    match
      (open_out_conn t.peers.(dst)
       [@hf.allow
         "blocking-under-lock -- peers are loopback sockets: connect either \
          completes immediately (the listener's backlog accepts) or fails \
          fast with ECONNREFUSED; an async reconnect queue is tracked \
          roadmap work"])
    with
    | conn ->
      Hashtbl.replace t.conns dst conn;
      Some conn
    | exception Unix.Unix_error _ -> None (* peer down *)
  in
  let conn =
    match Hashtbl.find_opt t.conns dst with
    | Some conn ->
      if conn_locked conn (fun () -> !(conn.broken)) then begin
        (* [conn_discard], not [conn_close]: we hold the site lock, and
           joining a writer that may be wedged on a dead socket would
           block every other thread at [locked] (hfcheck R7). *)
        conn_discard t conn;
        Hashtbl.remove t.conns dst;
        reopen ()
      end
      else Some conn
    | None -> reopen ()
  in
  match conn with
  | None -> Hf_obs.Tracer.finish ~detail:"peer down" t.tracer span
  | Some conn ->
    let rel =
      match t.reliability with
      | None -> None
      | Some _ ->
        Some
          { Hf_proto.Codec.src = t.id; seq; ack = Hf_proto.Reliable.take_ack (link_for t dst) }
    in
    let payload = Hf_proto.Codec.encode ~span ?rel message in
    t.messages_sent <- t.messages_sent + 1;
    t.bytes_sent <- t.bytes_sent + String.length payload;
    (* Per-query attribution: site-global counters cover every query at
       once, so an outcome reading global deltas would charge one query
       with its neighbors' traffic.  Each frame — retransmissions
       included — is charged to its query's live context instead; link
       housekeeping ([Link_ack]) and post-eviction control frames have
       no query context and stay site-global only. *)
    (match
       (match (message : Message.t) with
        | Message.Link_ack | Message.Stats_pull _ | Message.Stats_report _
        | Message.Work_batch [] -> None
        | m -> Some (Message.query_of m))
     with
    | Some q -> (
        match Hashtbl.find_opt t.contexts q with
        | Some ctx ->
          ctx.msgs_sent <- ctx.msgs_sent + 1;
          ctx.bytes_out <- ctx.bytes_out + String.length payload
        | None -> ())
    | None -> ());
    Hf_obs.Histogram.observe t.sent_frame_bytes (float_of_int (String.length payload));
    conn_send conn (Hf_proto.Frame.frame payload)
[@@hf.requires_lock "locked"]

(* --- query contexts --- *)

(* [cause] parents this site's evaluation span on the span of the work
   message that introduced the query here (0: no known cause). *)
let new_context t ?(cause = 0) ~query ~origin program =
  let span =
    Hf_obs.Tracer.start t.tracer ~parent:cause
      ~query:(Fmt.str "%a" Message.pp_query_id query)
      ~site:t.id ~phase:Hf_obs.Span.Eval "site-eval"
  in
  let final = if origin = t.id then Some (Site_core.results ()) else None in
  let ctx =
    {
      q = Site_core.query (Hf_engine.Plan.make program) ~origin ~final;
      span;
      marks = Hf_engine.Mark_table.create ();
      work = Hf_util.Deque.create ();
      stats = Hf_engine.Stats.create ();
      held = Credit.zero;
      recovered = Credit.zero;
      terminated = false;
      unreachable = [];
      out_pending = 0;
      draining = 0;
      ran_mode = Hf_query.Plan.Ship;
      decision = None;
      msgs_sent = 0;
      bytes_out = 0;
      queue_wait_s = 0.0;
      admitted = false;
      slot_released = false;
      cancelled = false;
    }
  in
  Hashtbl.replace t.contexts query ctx;
  ctx
[@@hf.requires_lock "locked"]

(* --- context eviction (ISSUE 6 satellite S1) --- *)

(* A terminated (or cancelled) query must leave no per-site state
   behind: under concurrency the contexts table is long-lived working
   state, not a per-query scratchpad, and leaking one entry per query
   is an unbounded heap on a server that never restarts. *)

let tombstone_cap = 1024

let mark_closed t query =
  if not (Hashtbl.mem t.closed query) then begin
    Hashtbl.replace t.closed query ();
    Queue.push query t.closed_order;
    if Queue.length t.closed_order > tombstone_cap then
      Hashtbl.remove t.closed (Queue.pop t.closed_order)
  end
[@@hf.requires_lock "locked"]

(* Drop the query's context and tombstone its id.  The record itself
   stays reachable from any live handle (origin side), so [await] can
   still read the final results; what this reclaims is the table entry,
   the working set and the parked items — and the tombstone makes a
   late Work_batch for the query die at the door instead of
   resurrecting an empty context. *)
let evict_context t query (ctx : context) =
  (* Eviction happens on the cancel / Query_done / termination paths:
     the origin has stopped counting, so any credit still held here is
     dead by design (on normal termination it is already zero). *)
  (Credit.discard ctx.held
   [@hf.allow
     "credit-linearity -- cancel-path exemption: an evicted context's \
      query no longer needs the termination detector to converge, so \
      its residual credit is deliberately destroyed"]);
  ctx.held <- Credit.zero;
  Hf_obs.Tracer.finish t.tracer ctx.span;
  Hf_util.Deque.clear ctx.work;
  Site_core.drop_parked ctx.q;
  Hashtbl.remove t.contexts query;
  mark_closed t query
[@@hf.requires_lock "locked"]

(* Free the admission slot a finished/cancelled local query held; a
   queued submission, if any, takes over the slot and is seeded here,
   still under the site lock. *)
let release_slot t (ctx : context) =
  if ctx.admitted && not ctx.slot_released then begin
    ctx.slot_released <- true;
    match Sched.release t.gate with Some job -> job.p_seed () | None -> ()
  end
[@@hf.requires_lock "locked"]

let note_unreachable ctx dead =
  if not (List.mem dead ctx.unreachable) then ctx.unreachable <- dead :: ctx.unreachable
[@@hf.requires_lock "locked"]

(* Count a routing verdict; [true] iff the item must still ship.
   Prune and hit keep it off the wire before its credit is ever
   split. *)
let ships t (verdict : Site_core.verdict) =
  match verdict with
  | Pruned ->
    t.cache_prunes <- t.cache_prunes + 1;
    false
  | Hit _ ->
    t.cache_hits <- t.cache_hits + 1;
    false
  | Miss { invalidated } ->
    if invalidated then t.cache_invalidations <- t.cache_invalidations + 1;
    t.cache_misses <- t.cache_misses + 1;
    true
  | Ship -> true
  | Parked _ -> false
[@@hf.requires_lock "locked"]

(* Front door for outgoing messages.  With reliability off this is a
   single fire-and-forget transmission — seed behavior, byte-identical
   frames.  With it on, the message first registers with the peer's
   reliable link, so a lost frame costs a retransmission instead of the
   message; a peer already past its retry budget fails fast into
   [give_up_message]. *)
let rec send t ?(span = 0) ~dst message =
  match t.reliability with
  | None -> transmit_raw t ~span ~seq:0 ~dst message
  | Some _ ->
    let link = link_for t dst in
    if Hf_proto.Reliable.unreachable link then begin
      Hf_obs.Tracer.finish ~detail:"unreachable" t.tracer span;
      give_up_message t ~dst message
    end
    else begin
      let seq = Hf_proto.Reliable.send link ~now:(Unix.gettimeofday ()) message in
      transmit_raw t ~span ~seq ~dst message
    end

(* [dst]'s retry budget is exhausted and [message] will never be
   delivered.  The receiver provably never processed it (dedup would
   have acked it), so the credit it carried can be reclaimed without
   double-counting: returned to the originator — directly when that is
   this site — together with a [Site_unreachable] notice so the client
   learns its answer is partial.  When the unreachable peer IS the
   originator there is no one left to pay or tell: the credit is
   dropped, which also bounds the recursion through [send]. *)
and give_up_message t ~dst message =
  t.give_ups <- t.give_ups + 1;
  Log.warn (fun m ->
      m "site %d: giving up on %a to unreachable peer %d" t.id Message.pp message dst);
  let reclaim query credit =
    let origin = query.Message.originator in
    if dst = origin then
      (* the originator itself is gone *)
      (Credit.discard (Credit.of_atoms credit)
       [@hf.allow
         "credit-linearity -- the originator is unreachable: no site is \
          left to pay, and dropping the credit bounds the give-up \
          recursion through [send] (see the comment above)"])
    else if t.id = origin then (
      match Hashtbl.find_opt t.contexts query with
      | None -> ()
      | Some ctx ->
        note_unreachable ctx dst;
        credit_recovered t query ctx (Credit.of_atoms credit))
    else begin
      send t ~dst:origin (Message.Site_unreachable { query; dead = dst });
      if credit <> [] then send t ~dst:origin (Message.Credit_return { query; credit })
    end
  in
  match (message : Message.t) with
  | Message.Deref_request { query; credit; _ } -> reclaim query credit
  | Message.Work_batch groups ->
    List.iter (fun { Message.query; credit; _ } -> reclaim query credit) groups
  | Message.Result { query; credit; _ } -> reclaim query credit
  | Message.Credit_return { query; credit } -> reclaim query credit
  | Message.Cache_validate { query; _ } -> (
      (* The validation round trip died: un-park the waiting items and
         ship them the plain way — those sends fail fast against the
         dead link and their credit is reclaimed by the work arms
         above.  Carries no credit itself. *)
      match Hashtbl.find_opt t.contexts query with
      | None -> ()
      | Some ctx -> release_parked t query ctx ~dst None)
  | Message.Scatter { query; credit; _ } ->
    (* The whole scattered site is gone.  Settle its slot in the stitch
       first (an empty gather, dropping its parked chains — the same
       answer a classic loss at that site produces), so the reclaim
       below can run the credit tail without the stitch holding it
       open forever. *)
    (match Hashtbl.find_opt t.contexts query with
     | None -> ()
     | Some ctx -> (
         match ctx.q.scatter with
         | None -> ()
         | Some st -> ignore (Hf_engine.Scatter.Stitch.site_dead st ~site:dst)));
    reclaim query credit;
    (match Hashtbl.find_opt t.contexts query with
     | None -> () (* the reclaim terminated and evicted the query *)
     | Some ctx -> finish_drain t query ctx)
  | Message.Gather_result { query; credit; _ } ->
    (* a gather toward an unreachable originator: same as a Result —
       reclaim discards the credit, there is no one left to pay *)
    reclaim query credit
  | Message.Link_ack | Message.Site_unreachable _ | Message.Cache_version _
  | Message.Cache_answers _ | Message.Query_done _ | Message.Stats_pull _
  | Message.Stats_report _ -> ()
  (* Query_done carries no credit: an unreachable peer just keeps its
     tombstone-less context until its own give-ups reclaim it.  Stats
     messages are credit-free by design — losing one costs a stale
     scrape, nothing more. *)
[@@hf.requires_lock "locked"]

(* --- the cache layer (DESIGN.md §4g) --- *)

(* Un-park every item waiting on [dst].  [Some version]: resolve each
   against the vouched version.  [None] (the validation round trip gave
   up): ship them all the plain way.  Ends with the drain tail, which
   the [draining] guard suppresses when a give-up fired mid-drain. *)
and release_parked t query ctx ~dst version =
  let items = Site_core.unpark ctx.q ~dst ~version in
  let misses =
    match version with
    | None -> items
    | Some version ->
      let now = Unix.gettimeofday () in
      List.filter
        (fun wi -> ships t (Site_core.resolve t.core ctx.q ~now ~can_serve:true ~dst ~version wi))
        items
  in
  send_work_batch t query ctx ~dst misses;
  finish_drain t query ctx
[@@hf.requires_lock "locked"]

(* Route one remote-bound item through the cache layer into the
   per-destination batcher; on first contact with a destination the
   item parks behind a Cache_validate round trip. *)
and route_remote t query ctx ~out wi =
  let dst = locate (Hf_engine.Work_item.oid wi) in
  match Site_core.route t.core ctx.q ~now:(Unix.gettimeofday ()) ~can_serve:true ~dst wi with
  | Site_core.Parked { validate } ->
    if validate then begin
      t.cache_validations <- t.cache_validations + 1;
      send t ~dst (Message.Cache_validate { query; src = t.id })
    end
  | verdict -> (
      if ships t verdict then begin
        ctx.out_pending <- ctx.out_pending + 1;
        match Hf_proto.Batch.push out ~dst wi with
        | None -> ()
        | Some items ->
          ctx.out_pending <- ctx.out_pending - List.length items;
          send_work_batch t query ctx ~dst items
      end)
[@@hf.requires_lock "locked"]

(* Ship a batch of work items to [dst], splitting the sender's credit
   once for the whole batch.  A single item goes as a plain
   [Deref_request] — byte-identical to the unbatched protocol — so a
   [Flush_at 1] site is indistinguishable on the wire. *)
and send_work_batch t query ctx ~dst items =
  match items with
  | [] -> ()
  | items ->
    let keep, gave = Credit.split ctx.held in
    ctx.held <- keep;
    let body = Hf_engine.Plan.program ctx.q.plan in
    let credit = Credit.atoms gave in
    let span =
      Hf_obs.Tracer.start t.tracer ~parent:ctx.span
        ~query:(Fmt.str "%a" Message.pp_query_id query)
        ~site:t.id ~phase:Hf_obs.Span.Ship
        (Fmt.str "work->%d" dst)
    in
    Hf_obs.Tracer.set_detail t.tracer span (Fmt.str "%d item(s)" (List.length items));
    (match items with
     | [ wi ] ->
       send t ~span ~dst
         (Message.Deref_request
            {
              query;
              body;
              oid = Hf_engine.Work_item.oid wi;
              start = Hf_engine.Work_item.start wi;
              iters = Hf_engine.Work_item.iters wi;
              credit;
            })
     | items ->
       send t ~span ~dst
         (Message.Work_batch
            [
              {
                Message.query;
                body;
                items =
                  List.map
                    (fun wi ->
                      {
                        Message.oid = Hf_engine.Work_item.oid wi;
                        start = Hf_engine.Work_item.start wi;
                        iters = Hf_engine.Work_item.iters wi;
                      })
                    items;
                credit;
              };
            ]))
[@@hf.requires_lock "locked"]

(* Apply a stitch outcome at the originator (scatter-gather mode):
   newly activated passing nodes join the final results, their bindings
   merge, and chains that escaped the scattered site set re-enter the
   classic pipeline — cache layer, batcher, credit split — as ordinary
   remote work.  Ordering matters for credit safety: the fallback ships
   split their share from the origin's held credit HERE, before the
   caller deposits whatever credit the gather carried, so the detector
   can never converge while stitched chains still owe work. *)
and apply_scatter_outcome t query ctx (outcome : Hf_engine.Scatter.Stitch.outcome) =
  Site_core.apply_stitched ctx.q outcome;
  t.scatter_fallbacks <- t.scatter_fallbacks + List.length outcome.fallback;
  if outcome.fallback <> [] then begin
    let out = Hf_proto.Batch.create t.batch_policy in
    List.iter (fun wi -> route_remote t query ctx ~out wi) outcome.fallback;
    List.iter
      (fun (dst, items) ->
        ctx.out_pending <- ctx.out_pending - List.length items;
        send_work_batch t query ctx ~dst items)
      (Hf_proto.Batch.flush_all out)
  end
[@@hf.requires_lock "locked"]

(* The credit-return tail: ship buffered results (credit riding along)
   to the originator, or at the originator recover the held credit.
   Gated — it must not run while a [process_to_drain] is still active
   ([draining]), while items sit in a live batcher ([out_pending]) or
   wait on a validation round trip ([parked_count]): credit would go
   home before those items' share was split off, and the originator
   would see termination with work outstanding. *)
and finish_drain t query ctx =
  if
    ctx.draining = 0 && ctx.q.parked_count = 0 && ctx.out_pending = 0
    && Hf_util.Deque.is_empty ctx.work
    && (match ctx.q.scatter with
        | None -> true
        | Some st -> Hf_engine.Scatter.Stitch.outstanding st = 0)
  then begin
    (* Opportunistic cache fill first: verdicts computed here flow to
       the originator's cache.  Credit-free — a drop costs future hits,
       never correctness. *)
    (match Site_core.take_answers ctx.q with
     | None -> ()
     | Some (version, answers) ->
       let answers =
         List.map
           (fun (wi, passed) : Message.cache_answer ->
             {
               oid = Hf_engine.Work_item.oid wi;
               start = Hf_engine.Work_item.start wi;
               iters = Hf_engine.Work_item.iters wi;
               passed;
             })
           answers
       in
       send t ~dst:ctx.q.origin (Message.Cache_answers { query; src = t.id; version; answers }));
    if t.id = ctx.q.origin then begin
      Site_core.flush_bindings ctx.q;
      if not (Credit.is_zero ctx.held) then begin
        let credit = ctx.held in
        ctx.held <- Credit.zero;
        credit_recovered t query ctx credit
      end
    end
    else begin
      let credit = ctx.held in
      ctx.held <- Credit.zero;
      let items, bindings = Site_core.take_results ctx.q in
      if items <> [] || bindings <> [] then begin
        let span =
          Hf_obs.Tracer.start t.tracer ~parent:ctx.span
            ~query:(Fmt.str "%a" Message.pp_query_id query)
            ~site:t.id ~phase:Hf_obs.Span.Ship
            (Fmt.str "result->%d" ctx.q.origin)
        in
        Hf_obs.Tracer.set_detail t.tracer span (Fmt.str "%d item(s)" (List.length items));
        send t ~span ~dst:ctx.q.origin
          (Message.Result
             { query; payload = Message.Items items; bindings; credit = Credit.atoms credit })
      end
      else if not (Credit.is_zero credit) then begin
        let span =
          Hf_obs.Tracer.start t.tracer ~parent:ctx.span
            ~query:(Fmt.str "%a" Message.pp_query_id query)
            ~site:t.id ~phase:Hf_obs.Span.Credit
            (Fmt.str "credit->%d" ctx.q.origin)
        in
        send t ~span ~dst:ctx.q.origin
          (Message.Credit_return { query; credit = Credit.atoms credit })
      end
    end
  end
[@@hf.requires_lock "locked"]

(* Process at most [budget] items of the working set; [true] iff work
   remains.  One bounded slice per lock hold is what lets N queries
   share a site: the old drain held the lock from first item to credit
   return, serializing every other query (and every incoming message)
   behind it.

   Remote spawns pass through the cache layer and a per-destination
   batcher: a destination reaching K items flushes mid-slice, and
   everything left flushes when the working set empties — always before
   this site's credit goes back, so termination is never starved. *)
and drain_slice t query ctx ~out ~budget =
  let rec step n =
    if n = 0 then not (Hf_util.Deque.is_empty ctx.work)
    else
      match Hf_util.Deque.pop_front ctx.work with
      | None -> false
      | Some item ->
        let { Hf_engine.Eval.spawned; passed; skipped } =
          Hf_engine.Eval.run_object ~plan:ctx.q.plan ~find:(Hf_data.Store.find t.store)
            ~marks:ctx.marks ~stats:ctx.stats ~emit:(Site_core.emit ctx.q) item
        in
        List.iter
          (fun wi ->
            let target_site = locate (Hf_engine.Work_item.oid wi) in
            if target_site = t.id then Hf_util.Deque.push_back ctx.work wi
            else route_remote t query ctx ~out wi)
          spawned;
        (* Record the verdict for the originator's cache: items that ran
           for real (not mark-skipped). *)
        if not skipped then Site_core.record_answer t.core ctx.q t.store item ~passed;
        if passed then Site_core.add_result ctx.q (Hf_engine.Work_item.oid item);
        step (n - 1)
  in
  step budget
[@@hf.requires_lock "locked"]

(* Credit recovered at the origin: check for global termination.  In
   the chain because termination broadcasts [Query_done] (through
   [send]) and a give-up may in turn recover credit. *)
and credit_recovered t query ctx credit =
  ctx.recovered <- Credit.add ctx.recovered credit;
  if Credit.is_one ctx.recovered && not ctx.terminated then begin
    ctx.terminated <- true;
    Log.debug (fun m -> m "site %d: query %a terminated" t.id Message.pp_query_id query);
    (* Termination is the eviction point (satellite S1): drop our own
       context first — so the broadcast frames are not charged to the
       query's outcome — then tell every peer to drop theirs and free
       the admission slot.  The handle still references the context
       record, so [await] reads the final results unharmed. *)
    evict_context t query ctx;
    broadcast_query_done t query;
    release_slot t ctx;
    Condition.broadcast t.done_cond
  end
[@@hf.requires_lock "locked"]

(* [Query_done] goes to every peer, not just the ones this site talked
   to: third-party shipping (B spawns work for C) opens contexts at
   sites the originator never contacted directly. *)
and broadcast_query_done t query =
  Array.iteri
    (fun peer _ ->
      if peer <> t.id then send t ~dst:peer (Message.Query_done { query; src = t.id }))
    t.peers
[@@hf.requires_lock "locked"]

(* Backpressure (DESIGN.md §4h): pause shipping while any reliable link
   holds at least [link_window] unacked frames — the sender is outrunning
   what the loss-recovery window can protect. *)
let link_congested t =
  match (t.admission.Sched.link_window, t.reliability) with
  | Some window, Some _ ->
    Hashtbl.fold
      (fun _ link acc -> acc || Hf_proto.Reliable.in_flight link >= window)
      t.links false
  | None, _ | _, None -> false
[@@hf.requires_lock "locked"]

let drain_slice_budget = 64

(* Process the working set to empty in bounded slices, then run the
   credit-return tail.  Takes and releases the site lock per slice —
   with a yield (or, under link congestion, a short sleep) in between —
   so concurrent queries and incoming messages interleave with a long
   drain instead of queueing behind it.  [seeds] are the query's initial
   oids (origin side): they ride the same cache layer and batcher as
   spawned work, exactly as the single-query engine shipped them.

   Reentrancy: several threads may drain the same context — items are
   popped under the lock, so each is processed once, and the
   [ctx.draining] depth keeps the credit tail gated until the last
   drainer's flush is out. *)
let process_to_drain ?(seeds = []) t query ctx =
  let out = Hf_proto.Batch.create t.batch_policy in
  locked t (fun () ->
      ctx.draining <- ctx.draining + 1;
      List.iter
        (fun oid ->
          let wi = Hf_engine.Work_item.initial ctx.q.plan oid in
          if locate oid = t.id then Hf_util.Deque.push_back ctx.work wi
          else route_remote t query ctx ~out wi)
        seeds);
  let rec loop () =
    let more, congested =
      locked t (fun () ->
          let more = drain_slice t query ctx ~out ~budget:drain_slice_budget in
          (more, more && link_congested t))
    in
    if more then begin
      if congested then Thread.delay 0.0005 else Thread.yield ();
      loop ()
    end
  in
  loop ();
  locked t (fun () ->
      (* drained: flush buffered work before any credit goes back *)
      List.iter
        (fun (dst, items) ->
          ctx.out_pending <- ctx.out_pending - List.length items;
          send_work_batch t query ctx ~dst items)
        (Hf_proto.Batch.flush_all out);
      ctx.draining <- ctx.draining - 1;
      finish_drain t query ctx)

(* --- the execution-mode planner (doc/execution_modes.md) --- *)

(* Price both modes from what this site can see without going to the
   wire: seed placement from oid birth sites, per-peer hints from the
   Bloom summaries learned via [Cache_version] replies (the
   Swamidass–Baldi entry estimate standing in for remote store stats),
   and nominal loopback unit costs.  The planner only needs ratios —
   a network round costs orders of magnitude more than evaluating one
   node — so the crossover lands where rounds, not bytes, dominate,
   matching the simulator's calibrated model. *)
let plan_decision t program initial =
  let peers =
    List.filter_map
      (fun peer ->
        if peer = t.id then None
        else
          let summary = Option.map snd (Site_core.learned t.core ~peer) in
          Some (peer, (Option.map Hf_index.Bloom.estimate_entries summary, summary)))
      (List.init (Array.length t.peers) Fun.id)
  in
  Site_core.plan_decision t.core ~locate ~store:t.store ~peers
    ~costs:(fun ~item_bytes ~p_local ->
      {
        Hf_query.Plan.transit = 5e-4;
        header_bytes = 32;
        item_bytes;
        node_bytes = 32;
        eval_s = 2e-6;
        byte_s = 1e-8;
        p_local;
      })
    program initial
[@@hf.requires_lock "locked"]

(* The planner's verdict for a query, without running it — [hfql :plan]
   renders this. *)
let explain t program initial = locked t (fun () -> plan_decision t program initial)

(* Origin half of a scatter round: split one credit share per scattered
   site, broadcast the program, then evaluate the origin's own domain
   and stitch it in as this site's gather.  The stitch keeps
   [finish_drain] gated until every remote gather (or a give-up
   verdict for its site) lands, so the origin's held credit cannot go
   home while stitched chains may still become fallback work. *)
let scatter_seed t query ctx ~sites initial =
  locked t (fun () ->
      let roots_of, stray = Site_core.scatter_seed ctx.q ~locate ~sites initial in
      let body = Hf_engine.Plan.program ctx.q.plan in
      List.iter
        (fun dst ->
          let keep, gave = Credit.split ctx.held in
          ctx.held <- keep;
          t.scatter_messages <- t.scatter_messages + 1;
          let span =
            Hf_obs.Tracer.start t.tracer ~parent:ctx.span
              ~query:(Fmt.str "%a" Message.pp_query_id query)
              ~site:t.id ~phase:Hf_obs.Span.Scatter
              (Fmt.str "scatter->%d" dst)
          in
          Hf_obs.Tracer.set_detail t.tracer span
            (Fmt.str "%d root(s)" (List.length (roots_of dst)));
          send t ~span ~dst
            (Message.Scatter
               { query; body; roots = roots_of dst; credit = Credit.atoms gave }))
        sites;
      let nodes =
        Hf_engine.Scatter.eval_site ~plan:ctx.q.plan
          ~find:(Hf_data.Store.find t.store)
          ~oids:(Hf_data.Store.oids t.store) ~roots:(roots_of t.id)
          ~stats:ctx.stats
      in
      apply_scatter_outcome t query ctx (Site_core.gather ctx.q ~site:t.id nodes);
      (* Stray seeds — oids located outside origin ∪ predicted, possible
         only if prediction raced a relocation — ship classically, same
         contract as an escaped chain. *)
      (if stray <> [] then begin
         let out = Hf_proto.Batch.create t.batch_policy in
         List.iter
           (fun oid ->
             route_remote t query ctx ~out (Hf_engine.Work_item.initial ctx.q.plan oid))
           stray;
         List.iter
           (fun (dst, items) ->
             ctx.out_pending <- ctx.out_pending - List.length items;
             send_work_batch t query ctx ~dst items)
           (Hf_proto.Batch.flush_all out)
       end);
      finish_drain t query ctx)

(* Answer a [Stats_pull]: snapshot our registry and ship it back.  The
   snapshot MUST be taken outside the site lock — registry gauges read
   site state under [locked], and the mutex is not reentrant — so the
   pull handler defers here, after [handle_message] releases the
   lock. *)
let report_stats t ~dst ~token =
  let stats = stats_of_snapshot (Hf_obs.Registry.snapshot t.registry) in
  locked t (fun () -> send t ~dst (Message.Stats_report { src = t.id; token; stats }))

(* --- incoming messages --- *)

(* [span] is the sender's shipping span carried on the wire (0 when the
   sender traced nothing): it is closed here — arrival time — and new
   contexts parent their evaluation spans on it.

   [rel] is the reliability envelope, when present: its piggybacked ack
   releases our retained sends to [rel.src], and its sequence number is
   checked against the receive window BEFORE the message reaches any
   handler — a retransmitted duplicate dies here, never re-evaluating
   work or re-depositing credit.

   Work arms no longer drain under the handler's lock hold: they bank
   the items and return the touched contexts, and the drain runs after
   the lock is released, in bounded slices ([process_to_drain]) — this
   is what lets queries from several origins make progress on one site
   concurrently.  Work for a tombstoned (already closed) query dies
   here: its credit is dead by construction — the originator only
   closes after the detector converged. *)
let handle_message t ?(span = 0) ?rel message =
  (* actions that must run after the lock is released (stats replies:
     snapshotting the registry re-takes the lock) *)
  let after = ref [] in
  let to_drain =
    locked t (fun () ->
      t.messages_received <- t.messages_received + 1;
      Hf_obs.Tracer.finish t.tracer span;
      let fresh =
        match ((rel : Hf_proto.Codec.rel option), t.reliability) with
        | None, _ | _, None -> true
        | Some { src = peer; seq; ack }, Some _ -> (
          let link = link_for t peer in
          let now = Unix.gettimeofday () in
          List.iter
            (fun latency -> Hf_obs.Histogram.observe t.ack_latency latency)
            (Hf_proto.Reliable.on_ack link ~now ack);
          seq = 0
          ||
          match Hf_proto.Reliable.receive link ~now ~seq with
          | `Fresh -> true
          | `Duplicate ->
            t.dup_drops <- t.dup_drops + 1;
            Log.debug (fun m -> m "site %d: duplicate seq %d from %d dropped" t.id seq peer);
            false)
      in
      if not fresh then []
      else
      match (message : Message.t) with
      | Message.Deref_request { query; body; oid; start; iters; credit } ->
        if Hashtbl.mem t.closed query then []
        else begin
          let ctx =
            match Hashtbl.find_opt t.contexts query with
            | Some ctx -> ctx
            | None -> new_context t ~cause:span ~query ~origin:query.Message.originator body
          in
          ctx.held <- Credit.add ctx.held (Credit.of_atoms credit);
          Hf_util.Deque.push_back ctx.work (Hf_engine.Work_item.make ~oid ~start ~iters);
          [ (query, ctx) ]
        end
      | Message.Work_batch groups ->
        List.filter_map
          (fun { Message.query; body; items; credit } ->
            if Hashtbl.mem t.closed query then None
            else begin
              let ctx =
                match Hashtbl.find_opt t.contexts query with
                | Some ctx -> ctx
                | None ->
                  new_context t ~cause:span ~query ~origin:query.Message.originator body
              in
              ctx.held <- Credit.add ctx.held (Credit.of_atoms credit);
              List.iter
                (fun ({ oid; start; iters } : Message.batch_item) ->
                  Hf_util.Deque.push_back ctx.work
                    (Hf_engine.Work_item.make ~oid ~start ~iters))
                items;
              Some (query, ctx)
            end)
          groups
      | Message.Result { query; payload; bindings; credit } ->
        (match Hashtbl.find_opt t.contexts query with
         | None -> () (* unknown/forgotten/closed query *)
         | Some ctx ->
           Option.iter
             (fun final ->
               (match payload with
                | Message.Items items -> List.iter (Site_core.add_final final) items
                | Message.Count _ -> ());
               Site_core.add_bindings final bindings)
             ctx.q.final;
           credit_recovered t query ctx (Credit.of_atoms credit));
        []
      | Message.Credit_return { query; credit } ->
        (match Hashtbl.find_opt t.contexts query with
         | None -> ()
         | Some ctx -> credit_recovered t query ctx (Credit.of_atoms credit));
        []
      | Message.Link_ack -> [] (* transport-level: the ack value rode in the envelope *)
      | Message.Site_unreachable { query; dead } ->
        (match Hashtbl.find_opt t.contexts query with
         | None -> ()
         | Some ctx -> note_unreachable ctx dead);
        []
      | Message.Cache_validate { query; src = peer } ->
        (* Report our store version; piggyback the Bloom summary unless
           this peer was already told this version's. *)
        let version, summary = Site_core.answer_validate t.core t.store ~peer in
        send t ~dst:peer
          (Message.Cache_version
             {
               query;
               site = t.id;
               version;
               epoch = Site_core.epoch t.core;
               summary = Option.map Hf_index.Bloom.to_string summary;
             });
        []
      | Message.Cache_version { query; site = peer; version; epoch; summary } ->
        (* A summary that does not decode is treated like none at all:
           no pruning against it, and a held one for another version is
           dropped. *)
        Site_core.learn t.core ~peer ~version ~epoch
          (Option.bind summary Hf_index.Bloom.of_string);
        (match Hashtbl.find_opt t.contexts query with
         | None -> ()
         | Some ctx -> release_parked t query ctx ~dst:peer (Some version));
        []
      | Message.Cache_answers { query; src = peer; version; answers } ->
        (* Opportunistic fill at the originator: install the remote's
           verdicts, keyed by the answering site. *)
        (match Hashtbl.find_opt t.contexts query with
         | None -> ()
         | Some ctx ->
           let answers =
             List.map
               (fun ({ oid; start; iters; passed } : Message.cache_answer) ->
                 (Hf_engine.Work_item.make ~oid ~start ~iters, passed))
               answers
           in
           t.cache_fills <-
             t.cache_fills
             + Site_core.fill t.core ctx.q ~now:(Unix.gettimeofday ()) ~peer ~version answers);
        []
      | Message.Query_done { query; _ } ->
        (* The originator closed the query (terminated or cancelled):
           drop our share of its state.  A context whose origin is this
           site is never evicted here — only the local handle closes
           those. *)
        (match Hashtbl.find_opt t.contexts query with
         | Some ctx when ctx.q.origin <> t.id -> evict_context t query ctx
         | Some _ -> ()
         | None -> mark_closed t query);
        []
      | Message.Stats_pull { src = peer; token } ->
        after :=
          ((fun () -> report_stats t ~dst:peer ~token)
           [@hf.allow
             "blocking-under-lock -- deferred thunk: handle_message runs \
              the [after] actions only once the lock is released, so the \
              re-acquisition inside report_stats never nests"])
          :: !after;
        []
      | Message.Stats_report { src = peer; token; stats } ->
        Hashtbl.replace t.peer_stats peer (snapshot_of_stats stats);
        (* tokens only ratchet up: a periodic push (token 0) arriving
           between a fresh report and its waiter's check must not make
           the pull look unanswered again *)
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.peer_stats_token peer) in
        if token > prev then Hashtbl.replace t.peer_stats_token peer token;
        Condition.broadcast t.stats_cond;
        []
      | Message.Scatter { query; body; roots; credit } ->
        if Hashtbl.mem t.closed query then []
        else begin
          let ctx =
            match Hashtbl.find_opt t.contexts query with
            | Some ctx -> ctx
            | None -> new_context t ~cause:span ~query ~origin:query.Message.originator body
          in
          let gave = Credit.of_atoms credit in
          (* Evaluate the whole speculation domain here and now — pure
             CPU under the lock, like a drain slice's evaluation — and
             answer with one gather.  The scatter's credit share rides
             straight back on it; classic work concurrently in flight
             for this query (a fallback chain re-entering this site)
             keeps its own credit and drains through the normal tail. *)
          let engine_nodes =
            Hf_engine.Scatter.eval_site ~plan:ctx.q.plan
              ~find:(Hf_data.Store.find t.store)
              ~oids:(Hf_data.Store.oids t.store) ~roots ~stats:ctx.stats
          in
          let nodes =
            List.map
              (fun (n : Hf_engine.Scatter.node) ->
                {
                  Message.oid = n.oid;
                  start = n.start;
                  passed = n.passed;
                  visited = n.visited;
                  spawns = n.spawns;
                  bindings = n.bindings;
                })
              engine_nodes
          in
          let gspan =
            Hf_obs.Tracer.start t.tracer ~parent:ctx.span
              ~query:(Fmt.str "%a" Message.pp_query_id query)
              ~site:t.id ~phase:Hf_obs.Span.Scatter
              (Fmt.str "gather->%d" ctx.q.origin)
          in
          Hf_obs.Tracer.set_detail t.tracer gspan
            (Fmt.str "%d node(s)" (List.length nodes));
          send t ~span:gspan ~dst:ctx.q.origin
            (Message.Gather_result
               { query; src = t.id; nodes; credit = Credit.atoms gave });
          []
        end
      | Message.Gather_result { query; src = peer; nodes; credit } ->
        (match Hashtbl.find_opt t.contexts query with
         | None -> () (* closed/cancelled: dead credit, like a late Result *)
         | Some ctx ->
           t.gather_messages <- t.gather_messages + 1;
           t.gather_nodes <- t.gather_nodes + List.length nodes;
           let engine_nodes =
             List.map
               (fun (n : Message.gather_node) ->
                 {
                   Hf_engine.Scatter.oid = n.oid;
                   start = n.start;
                   passed = n.passed;
                   visited = n.visited;
                   spawns = n.spawns;
                   bindings = n.bindings;
                 })
               nodes
           in
           (* fallback credit splits happen inside, BEFORE the gather's
              credit is deposited below *)
           apply_scatter_outcome t query ctx (Site_core.gather ctx.q ~site:peer engine_nodes);
           credit_recovered t query ctx (Credit.of_atoms credit);
           (match Hashtbl.find_opt t.contexts query with
            | None -> () (* the deposit terminated and evicted the query *)
            | Some ctx -> finish_drain t query ctx));
        [])
  in
  List.iter (fun act -> act ()) !after;
  List.iter (fun (query, ctx) -> process_to_drain t query ctx) to_drain

(* Fire every due link deadline: standalone acks whose piggyback window
   expired, retransmissions, and retry-cap give-ups.  Driven by the
   site clock — the wall-clock twin of the simulator's timer events.
   The link table is snapshotted first because a give-up may open a new
   link (to the originator) mid-walk. *)
let poke_links t =
  let now = Unix.gettimeofday () in
  let links = Hashtbl.fold (fun peer link acc -> (peer, link) :: acc) t.links [] in
  List.iter
    (fun (peer, link) ->
      List.iter
        (function
          | Hf_proto.Reliable.Send_ack ->
            t.acks_sent <- t.acks_sent + 1;
            transmit_raw t ~seq:0 ~dst:peer Message.Link_ack
          | Hf_proto.Reliable.Retransmit entries ->
            List.iter
              (fun (seq, message) ->
                t.retransmits <- t.retransmits + 1;
                ignore
                  (Hf_obs.Tracer.instant t.tracer
                     ~detail:(Fmt.str "seq=%d" seq)
                     ~query:"-" ~site:t.id ~phase:Hf_obs.Span.Retransmit
                     (Fmt.str "retransmit->%d" peer));
                transmit_raw t ~seq ~dst:peer message)
              entries
          | Hf_proto.Reliable.Give_up entries ->
            Log.warn (fun m ->
                m "site %d: peer %d declared unreachable after retries" t.id peer);
            List.iter (fun (_, message) -> give_up_message t ~dst:peer message) entries)
        (Hf_proto.Reliable.poll link ~now))
    links
[@@hf.requires_lock "locked"]

(* --- the site clock --- *)

(* A site's one timer thread.  Each tick, under the site lock, it fires
   due link deadlines (reliability on), sends the [stats_period] scrape
   once it is due, and wakes every [await] and [pull_stats] so they see
   their deadlines pass: Condition.wait has no timeout, and completion
   (credit recovered, a Stats_report landing) broadcasts on its own, so
   a waiter sleeps at most one tick past its deadline and never past its
   answer.  The tick is the reliability poll period when that layer is
   on, else [idle_tick]. *)
let idle_tick = 0.01

let clock_loop t () =
  let period =
    match t.reliability with
    | Some cfg -> Float.max 0.002 (Float.min 0.01 (cfg.ack_delay /. 2.0))
    | None -> idle_tick
  in
  let next_scrape = ref (Unix.gettimeofday () +. Option.value t.stats_period ~default:0.0) in
  while t.running do
    Thread.delay period;
    if t.running then
      locked t (fun () ->
          if Option.is_some t.reliability then poke_links t;
          (* Periodic scrape (DESIGN.md §4i): pull every peer's registry
             so [peer_stats] stays warm without anyone asking.  Token 0
             marks the replies unsolicited — a concurrent [pull_stats]
             with a real token never mistakes one for its answer. *)
          (match t.stats_period with
           | Some every when Unix.gettimeofday () >= !next_scrape ->
             next_scrape := !next_scrape +. every;
             Array.iteri
               (fun peer _ ->
                 if peer <> t.id then
                   send t ~dst:peer (Message.Stats_pull { src = t.id; token = 0 }))
               t.peers
           | Some _ | None -> ());
          Condition.broadcast t.done_cond;
          Condition.broadcast t.stats_cond)
  done

(* --- reader / accept threads --- *)

let reader_loop t fd () =
  let decoder = Hf_proto.Frame.Decoder.create () in
  let chunk = Bytes.create 8192 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Hf_proto.Frame.Decoder.feed decoder (Bytes.sub_string chunk 0 n);
      List.iter
        (fun payload ->
          match Hf_proto.Codec.decode_enveloped payload with
          | Ok (message, span, rel) -> handle_message t ~span ?rel message
          | Error err ->
            Log.warn (fun m -> m "site %d: undecodable message dropped: %s" t.id err))
        (Hf_proto.Frame.Decoder.drain decoder);
      loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listener with
    | fd, _ ->
      Unix.setsockopt fd TCP_NODELAY true;
      ignore (Thread.create (reader_loop t fd) ());
      loop ()
    | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
  in
  loop ()

(* --- lifecycle --- *)

let create ~site ?(batch = Hf_proto.Batch.unbatched) ?reliability ?cache
    ?(admission = Sched.unlimited) ?(exec = Exec_ship)
    ?(tracer = Hf_obs.Tracer.noop) ?stats_period ?monitor_port () =
  Hf_proto.Batch.validate_policy batch;
  Option.iter Hf_proto.Reliable.validate reliability;
  Option.iter Hf_index.Remote_cache.validate cache;
  Sched.validate admission;
  Option.iter
    (fun p ->
      if not (p > 0.0) then invalid_arg "Tcp_site.create: stats_period must be positive")
    stats_period;
  let listener = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listener SO_REUSEADDR true;
  Unix.bind listener (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 16;
  let address = Unix.getsockname listener in
  let registry = Hf_obs.Registry.create () in
  let sent_frame_bytes = Hf_obs.Registry.histogram registry "hf.net.sent_frame_bytes" in
  let query_rtt = Hf_obs.Registry.histogram registry "hf.net.query_rtt_s" in
  let ack_latency = Hf_obs.Registry.histogram registry "hf.net.ack_latency_s" in
  let admission_wait = Hf_obs.Registry.histogram registry "hf.net.admission_wait_s" in
  let bloofi_depth = Hf_obs.Registry.histogram registry "hf.index.bloofi_descent_depth" in
  let t =
    {
      id = site;
      store = Hf_data.Store.create ~site;
      batch_policy = batch;
      reliability;
      links = Hashtbl.create 8;
      listener;
      address;
      peers = [||];
      conns = Hashtbl.create 8;
      lock = Mutex.create ();
      done_cond = Condition.create ();
      contexts = Hashtbl.create 8;
      next_serial = 0;
      admission;
      gate = Sched.create admission;
      closed = Hashtbl.create 32;
      closed_order = Queue.create ();
      running = true;
      clock = None;
      dead_writers = [];
      join_errors = Atomic.make 0;
      tracer;
      registry;
      sent_frame_bytes;
      query_rtt;
      ack_latency;
      messages_sent = 0;
      bytes_sent = 0;
      messages_received = 0;
      retransmits = 0;
      dup_drops = 0;
      acks_sent = 0;
      give_ups = 0;
      core = Site_core.create ~self:site ~cache ~bloofi:true ~bloofi_depth;
      cache_hits = 0;
      cache_misses = 0;
      cache_prunes = 0;
      cache_validations = 0;
      cache_fills = 0;
      cache_invalidations = 0;
      exec;
      scatter_messages = 0;
      gather_messages = 0;
      gather_nodes = 0;
      scatter_fallbacks = 0;
      planner_scatter = 0;
      planner_ship = 0;
      stats_token = 0;
      peer_stats = Hashtbl.create 8;
      peer_stats_token = Hashtbl.create 8;
      stats_cond = Condition.create ();
      stats_period;
      monitor = None;
      admission_wait;
    }
  in
  Hf_obs.Registry.register_counter registry "hf.net.messages_sent" (fun () ->
      locked t (fun () -> t.messages_sent));
  Hf_obs.Registry.register_counter registry "hf.net.bytes_sent" (fun () ->
      locked t (fun () -> t.bytes_sent));
  Hf_obs.Registry.register_counter registry "hf.net.messages_received" (fun () ->
      locked t (fun () -> t.messages_received));
  Hf_obs.Registry.register_counter registry "hf.net.join_errors" (fun () ->
      Atomic.get t.join_errors);
  Hf_obs.Registry.register_counter registry "hf.net.retransmits" (fun () ->
      locked t (fun () -> t.retransmits));
  Hf_obs.Registry.register_counter registry "hf.net.dup_drops" (fun () ->
      locked t (fun () -> t.dup_drops));
  Hf_obs.Registry.register_counter registry "hf.net.acks_sent" (fun () ->
      locked t (fun () -> t.acks_sent));
  Hf_obs.Registry.register_counter registry "hf.net.give_ups" (fun () ->
      locked t (fun () -> t.give_ups));
  Hf_obs.Registry.register_counter registry "hf.net.cache_hits" (fun () ->
      locked t (fun () -> t.cache_hits));
  Hf_obs.Registry.register_counter registry "hf.net.cache_misses" (fun () ->
      locked t (fun () -> t.cache_misses));
  Hf_obs.Registry.register_counter registry "hf.net.cache_prunes" (fun () ->
      locked t (fun () -> t.cache_prunes));
  Hf_obs.Registry.register_counter registry "hf.net.cache_validations" (fun () ->
      locked t (fun () -> t.cache_validations));
  Hf_obs.Registry.register_counter registry "hf.net.cache_fills" (fun () ->
      locked t (fun () -> t.cache_fills));
  Hf_obs.Registry.register_counter registry "hf.net.cache_invalidations" (fun () ->
      locked t (fun () -> t.cache_invalidations));
  Hf_obs.Registry.register_counter registry "hf.net.scatter_messages" (fun () ->
      locked t (fun () -> t.scatter_messages));
  Hf_obs.Registry.register_counter registry "hf.net.gather_messages" (fun () ->
      locked t (fun () -> t.gather_messages));
  Hf_obs.Registry.register_counter registry "hf.net.gather_nodes" (fun () ->
      locked t (fun () -> t.gather_nodes));
  Hf_obs.Registry.register_counter registry "hf.net.scatter_fallbacks" (fun () ->
      locked t (fun () -> t.scatter_fallbacks));
  Hf_obs.Registry.register_counter registry "hf.net.planner_scatter" (fun () ->
      locked t (fun () -> t.planner_scatter));
  Hf_obs.Registry.register_counter registry "hf.net.planner_ship" (fun () ->
      locked t (fun () -> t.planner_ship));
  Hf_obs.Registry.register_counter registry "hf.index.bloofi_probes" (fun () ->
      locked t (fun () -> Site_core.bloofi_count Hf_index.Bloofi.probes_run t.core));
  Hf_obs.Registry.register_counter registry "hf.index.bloofi_pruned_sites" (fun () ->
      locked t (fun () -> Site_core.bloofi_count Hf_index.Bloofi.pruned_total t.core));
  Hf_obs.Registry.register_counter registry "hf.index.bloofi_rebuilds" (fun () ->
      locked t (fun () -> Site_core.bloofi_count Hf_index.Bloofi.rebuilds t.core));
  Hf_obs.Registry.register_counter registry "hf.net.queries_running" (fun () ->
      locked t (fun () -> Sched.running t.gate));
  Hf_obs.Registry.register_counter registry "hf.net.queries_queued" (fun () ->
      locked t (fun () -> Sched.queued t.gate));
  Hf_obs.Registry.register_counter registry "hf.net.contexts_live" (fun () ->
      locked t (fun () -> Hashtbl.length t.contexts));
  (* Live gauges over previously-dark state (DESIGN.md §4i): the
     reliable links' unacked window and owed acks, the admission gate's
     fairness picture, and the answer cache's occupancy.  All of it is
     owned by the site lock, so every read goes through [locked]. *)
  Hf_obs.Registry.register_gauge registry "hf.net.link_in_flight" (fun () ->
      locked t (fun () ->
          float_of_int
            (Hashtbl.fold
               (fun _ link acc -> acc + Hf_proto.Reliable.in_flight link)
               t.links 0)));
  Hf_obs.Registry.register_gauge registry "hf.net.link_ack_backlog" (fun () ->
      locked t (fun () ->
          float_of_int
            (Hashtbl.fold
               (fun _ link acc -> if Hf_proto.Reliable.ack_owed link then acc + 1 else acc)
               t.links 0)));
  Hf_obs.Registry.register_gauge registry "hf.net.sched_tenants" (fun () ->
      locked t (fun () -> float_of_int (Sched.waiting_tenants t.gate)));
  Hf_obs.Registry.register_gauge registry "hf.net.cache_entries" (fun () ->
      locked t (fun () -> float_of_int (Site_core.cache_entries t.core)));
  Hf_obs.Tracer.register tracer registry ~prefix:"hf.net";
  (* The accept, reader, monitor and drainer threads run detached: each
     ends on its own once its socket closes or its query drains. *)
  ignore (Thread.create (accept_loop t) ());
  (* The site clock transmits on the outbound connections, so it stays
     joinable: [shutdown] joins it before they are torn down. *)
  t.clock <- Some (Thread.create (clock_loop t) ());
  (* The always-on monitoring surface: a plain-TCP loopback listener
     that answers every connection with a Prometheus text dump of this
     site's registry and closes.  No HTTP framing — `nc localhost port`
     (or [hfql stats]) reads it directly.  Snapshots are taken outside
     the site lock (gauges take it). *)
  (match monitor_port with
   | None -> ()
   | Some port ->
     let mon = Unix.socket PF_INET SOCK_STREAM 0 in
     Unix.setsockopt mon SO_REUSEADDR true;
     Unix.bind mon (ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen mon 4;
     t.monitor <- Some mon;
     let serve fd =
       let body =
         Hf_obs.Prometheus.render ~labels:[ ("site", string_of_int t.id) ] t.registry
       in
       let bytes = Bytes.of_string body in
       let rec write_all off =
         if off < Bytes.length bytes then
           match Unix.write fd bytes off (Bytes.length bytes - off) with
           | n -> write_all (off + n)
           | exception Unix.Unix_error _ -> ()
       in
       write_all 0;
       try Unix.close fd with Unix.Unix_error _ -> ()
     in
     let monitor_loop () =
       let rec loop () =
         match Unix.accept mon with
         | fd, _ ->
           serve fd;
           loop ()
         | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
       in
       loop ()
     in
     ignore (Thread.create monitor_loop ()));
  t

let address t = t.address

let store t = t.store

let id t = t.id

let tracer t = t.tracer

let registry t = t.registry

let set_peers t peers =
  locked t (fun () ->
      let old = t.peers in
      t.peers <- peers;
      (* A changed address is a new lineage at that site: the pooled
         connection still reaches the OLD process (its accepted sockets
         outlive its listener), and the reliability link's windows are
         meaningless to the replacement.  Drop both so the next send
         reconnects fresh. *)
      Array.iteri
        (fun dst addr ->
          if dst < Array.length old && old.(dst) <> addr then begin
            (match Hashtbl.find_opt t.conns dst with
             | Some conn ->
               conn_discard t conn;
               Hashtbl.remove t.conns dst
             | None -> ());
            Hashtbl.remove t.links dst
          end)
        peers)

let shutdown t =
  if t.running then begin
    t.running <- false;
    (* Quiesce the site clock BEFORE tearing connections down: each
       tick takes the site lock and may transmit (retransmits, acks,
       the stats scrape), so closing the connections first races a
       frame against the writer join — it either lands on a closing
       queue (silently dropped after the writer exited) or reopens a
       connection to a peer that is itself mid-shutdown.  [running] is
       already false, so the join returns within one tick. *)
    (match t.clock with
     | Some thread ->
       (try Thread.join thread with _ -> Atomic.incr t.join_errors);
       t.clock <- None
     | None -> ());
    (* wake the monitor accept thread the same way as the listener's *)
    (match t.monitor with
     | Some fd ->
       (try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
       (try Unix.close fd with Unix.Unix_error _ -> ());
       t.monitor <- None
     | None -> ());
    (* shutdown(2) before close: close alone does NOT wake a thread
       blocked in accept(2) — the in-flight syscall pins the socket, so
       the "closed" listener keeps accepting one more connection and a
       supposedly-dead site goes on answering queries (observed as a
       flaky dead-peer test).  Shutting the socket down fails the
       blocked accept with EINVAL and refuses subsequent connects. *)
    (try Unix.shutdown t.listener SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* Snapshot under the lock, tear down outside it: [conn_close]
       joins each writer thread, and a join under the site lock would
       block every thread still draining (hfcheck R7).  Nothing new
       lands in [conns] afterwards — [running] is false and the clock
       is already joined.  Nothing ticks any more either, so wake every
       blocked [await] and [pull_stats] here: they see [running] false
       and return instead of sleeping past their deadlines. *)
    let conns, dead_writers =
      locked t (fun () ->
          Condition.broadcast t.done_cond;
          Condition.broadcast t.stats_cond;
          let conns = Hashtbl.fold (fun _ conn acc -> conn :: acc) t.conns [] in
          Hashtbl.reset t.conns;
          let dead = t.dead_writers in
          t.dead_writers <- [];
          (conns, dead))
    in
    List.iter (fun conn -> conn_close ~join_errors:t.join_errors conn) conns;
    List.iter
      (fun thread -> try Thread.join thread with _ -> Atomic.incr t.join_errors)
      dead_writers
  end

(* --- issuing queries from the embedding client --- *)

(* Distinguishes "the peer was slow" from "the peer is gone": a timeout
   says nothing about the missing sites, while [Partial] is a positive
   statement — retransmission gave up on exactly these peers and every
   other site's contribution is fully accounted for (credit converged
   to 1). *)
type status =
  | Complete
  | Partial of int list (* unreachable sites, ascending *)
  | Timed_out
  | Cancelled

type outcome = {
  results : Hf_data.Oid.t list;
  result_set : Hf_data.Oid.Set.t;
  bindings : (string * Hf_data.Value.t list) list;
  terminated : bool;
  status : status;
  response_time : float; (* wall-clock seconds *)
  queue_wait_s : float; (* time spent in the admission queue *)
  messages_sent : int;
  bytes_sent : int;
  mode : Hf_query.Plan.mode; (* which execution mode ran *)
  plan_decision : Hf_query.Plan.decision option; (* when a planner ran *)
}

type handle = {
  h_query : Message.query_id;
  h_ctx : context;
  h_root_span : int;
  h_started : float;
}

(* Issue a query without waiting for it: the admission gate either
   starts it now or parks it (fairly) until a running one finishes.  An
   admitted query is processed by its own drainer thread, in bounded
   lock slices, so any number of them interleave on the site — the old
   [run_query] held the site lock for the whole query, serializing the
   server on its busiest code path. *)
let submit_query (t : t) program initial =
  let started = Unix.gettimeofday () in
  locked t (fun () ->
      let query = { Message.originator = t.id; serial = t.next_serial } in
      t.next_serial <- t.next_serial + 1;
      let root_span =
        Hf_obs.Tracer.start t.tracer
          ~query:(Fmt.str "%a" Message.pp_query_id query)
          ~site:t.id ~phase:Hf_obs.Span.Query "query"
      in
      let ctx = new_context t ~cause:root_span ~query ~origin:t.id program in
      (* Mode selection (doc/execution_modes.md): [Exec_ship] is the
         byte-identical legacy path — no planner runs at all.  This
         engine is always per-site-marks, ship-items, so eligibility
         plus a non-empty predicted set is all scatter needs. *)
      let decision, scatter_sites =
        Site_core.choose t.exec ~can_scatter:true (fun () -> plan_decision t program initial)
      in
      ctx.decision <- decision;
      (match decision with
       | None -> ()
       | Some _ ->
         if Option.is_some scatter_sites then
           t.planner_scatter <- t.planner_scatter + 1
         else t.planner_ship <- t.planner_ship + 1);
      let seed () =
        ctx.admitted <- true;
        ctx.held <- Credit.one;
        (* Queue wait, measured at the moment the gate finally seeds us:
           zero when admission was immediate.  Recorded three ways — the
           site histogram (the monitoring surface), the context (the
           outcome's per-query figure), and a retroactive [Wait] span so
           the profile's phase breakdown shows queued time next to
           execution time. *)
        let wait = Float.max 0.0 (Unix.gettimeofday () -. started) in
        ctx.queue_wait_s <- wait;
        Hf_obs.Histogram.observe t.admission_wait wait;
        (* the span lives on the tracer's clock (which may not be wall
           time): end it "now" there and back-date the start by [wait] *)
        let trace_now = Hf_obs.Tracer.now t.tracer in
        ignore
          (Hf_obs.Tracer.complete t.tracer ~parent:root_span
             ~query:(Fmt.str "%a" Message.pp_query_id query)
             ~site:t.id ~phase:Hf_obs.Span.Wait ~start:(trace_now -. wait)
             ~finish:trace_now "admission-wait");
        match scatter_sites with
        | Some sites ->
          ctx.ran_mode <- Hf_query.Plan.Scatter;
          ignore (Thread.create (fun () -> scatter_seed t query ctx ~sites initial) ())
        | None -> ignore (Thread.create (fun () -> process_to_drain ~seeds:initial t query ctx) ())
      in
      (match Sched.admit t.gate ~tenant:t.id { p_query = query; p_seed = seed } with
       | Sched.Run -> seed ()
       | Sched.Queued -> ()
       | Sched.Rejected ->
         Hashtbl.remove t.contexts query;
         Hf_obs.Tracer.finish ~detail:"rejected" t.tracer ctx.span;
         Hf_obs.Tracer.finish ~detail:"rejected" t.tracer root_span;
         failwith
           (Fmt.str "Tcp_site.submit_query: admission queue full at site %d (%a)" t.id
              Sched.pp_config t.admission));
      { h_query = query; h_ctx = ctx; h_root_span = root_span; h_started = started })

(* Wait for termination, or time out (e.g. a crashed peer).  Sleeps on
   [done_cond], which termination and [cancel] broadcast at once; the
   site clock also broadcasts it every tick, so the deadline is noticed
   within a tick.  A shut-down site stops the wait too.  Timing out
   leaves the query running (and its admission slot held): a second
   [await] on the same handle picks it back up. *)
let await ?(timeout = 10.0) (t : t) (handle : handle) =
  let ctx = handle.h_ctx in
  let deadline = Unix.gettimeofday () +. timeout in
  let outcome =
    locked t (fun () ->
        while
          (not (ctx.terminated || ctx.cancelled))
          && t.running
          && Unix.gettimeofday () < deadline
        do
          Condition.wait t.done_cond t.lock
        done;
        let status =
          if ctx.cancelled then Cancelled
          else if not ctx.terminated then Timed_out
          else if ctx.unreachable = [] then Complete
          else Partial (List.sort_uniq compare ctx.unreachable)
        in
        (* a locally-issued query's context always holds the final answer *)
        let final = Option.get ctx.q.final in
        {
          results = List.rev final.oids;
          result_set = final.set;
          bindings =
            Hashtbl.fold
              (fun target values acc -> (target, values) :: acc)
              final.merged []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b);
          terminated = ctx.terminated;
          status;
          response_time = Unix.gettimeofday () -. handle.h_started;
          queue_wait_s = ctx.queue_wait_s;
          (* per-query attribution (satellite S3): concurrent neighbors'
             frames never land in this outcome *)
          messages_sent = ctx.msgs_sent;
          bytes_sent = ctx.bytes_out;
          mode = ctx.ran_mode;
          plan_decision = ctx.decision;
        })
  in
  Hf_obs.Histogram.observe t.query_rtt outcome.response_time;
  (match outcome.status with
   | Timed_out -> () (* still live: spans close when it terminates *)
   | Complete | Partial _ | Cancelled ->
     Hf_obs.Tracer.finish t.tracer handle.h_root_span
       ~detail:
         (match outcome.status with
          | Complete -> "terminated"
          | Partial dead -> Fmt.str "partial: unreachable %a" Fmt.(list ~sep:comma int) dead
          | Cancelled -> "cancelled"
          | Timed_out -> assert false));
  outcome

(* Abort a local query.  Queued: it just leaves the admission queue.
   Admitted: this site's context is discarded wholesale and the peers
   are told to discard theirs — the outstanding credit is deliberately
   never recovered, which is sound because a cancelled query no longer
   needs the termination detector to converge; in-flight work for it
   dies against the tombstones.  Idempotent; a terminated query is left
   alone. *)
let cancel (t : t) (handle : handle) =
  locked t (fun () ->
      let ctx = handle.h_ctx in
      if not (ctx.terminated || ctx.cancelled) then begin
        ctx.cancelled <- true;
        if ctx.admitted then begin
          evict_context t handle.h_query ctx;
          broadcast_query_done t handle.h_query;
          release_slot t ctx
        end
        else begin
          ignore
            (Sched.cancel_queued t.gate (fun job ->
                 Message.equal_query_id job.p_query handle.h_query));
          evict_context t handle.h_query ctx
        end;
        Hf_obs.Tracer.finish ~detail:"cancelled" t.tracer handle.h_root_span;
        Condition.broadcast t.done_cond
      end)

let run_query ?(timeout = 10.0) (t : t) program initial =
  await ~timeout t (submit_query t program initial)

(* --- introspection (tests, demo) --- *)

let context_count t = locked t (fun () -> Hashtbl.length t.contexts)

let admission_running t = locked t (fun () -> Sched.running t.gate)

let admission_queued t = locked t (fun () -> Sched.queued t.gate)

let monitor_address t = Option.map Unix.getsockname t.monitor

(* --- cluster-wide stats (DESIGN.md §4i) --- *)

(* Snapshot every site's registry: broadcast a [Stats_pull] under a
   fresh token and wait until each peer's report carrying (at least)
   that token lands, or the timeout passes — an unreachable peer then
   contributes its last-known snapshot, if any, rather than blocking
   the scrape forever.  Returns (site, snapshot) pairs, this site
   included, ascending by site id.  Same wait as [await], on
   [stats_cond]: each report landing broadcasts it, the site clock
   every tick. *)
let pull_stats ?(timeout = 5.0) (t : t) =
  let token, peers =
    locked t (fun () ->
        t.stats_token <- t.stats_token + 1;
        let token = t.stats_token in
        let peers = ref [] in
        Array.iteri
          (fun peer _ ->
            if peer <> t.id then begin
              peers := peer :: !peers;
              send t ~dst:peer (Message.Stats_pull { src = t.id; token })
            end)
          t.peers;
        (token, !peers))
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let remote =
    locked t (fun () ->
        let missing () =
          List.exists
            (fun peer ->
              match Hashtbl.find_opt t.peer_stats_token peer with
              | Some answered -> answered < token
              | None -> true)
            peers
        in
        while missing () && t.running && Unix.gettimeofday () < deadline do
          Condition.wait t.stats_cond t.lock
        done;
        List.filter_map
          (fun peer ->
            Option.map (fun snap -> (peer, snap)) (Hashtbl.find_opt t.peer_stats peer))
          peers)
  in
  (* own snapshot outside the lock: gauges take it *)
  let own = (t.id, Hf_obs.Registry.snapshot t.registry) in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (own :: remote)

(* One merged registry over the whole cluster: counters and gauges sum,
   histograms merge bucket-exactly ({!Hf_obs.Registry.merge_snapshots}). *)
let cluster_stats ?timeout t = Hf_obs.Registry.merge_snapshots (List.map snd (pull_stats ?timeout t))

(* Last-known peer snapshots without going to the wire — what the
   [stats_period] scrape keeps warm. *)
let known_peer_stats t =
  locked t (fun () ->
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun peer snap acc -> (peer, snap) :: acc) t.peer_stats []))

(* --- per-query profiles (EXPLAIN ANALYZE, DESIGN.md §4i) --- *)

(* Fold the tracer's spans for this query into a per-site phase/rounds
   breakdown and pin the engine's per-query counters alongside as
   scalars.  Call after [await]: a still-running query yields a partial
   profile (open spans count from start to "now" on the tracer's
   clock).  Sites sharing one tracer (tests, the demo cluster) get the
   full cross-site picture; separate processes each see their half. *)
let profile (t : t) (handle : handle) (outcome : outcome) =
  let query = Fmt.str "%a" Message.pp_query_id handle.h_query in
  Hf_obs.Profile.of_spans ~query
    ~scalars:
      [
        ("messages_sent", Hf_obs.Profile.Int outcome.messages_sent);
        ("bytes_sent", Hf_obs.Profile.Int outcome.bytes_sent);
        ("results", Hf_obs.Profile.Int (List.length outcome.results));
        ( "mode_scatter",
          Hf_obs.Profile.Int
            (match outcome.mode with
             | Hf_query.Plan.Scatter -> 1
             | Hf_query.Plan.Ship -> 0) );
        ("queue_wait_s", Hf_obs.Profile.Float outcome.queue_wait_s);
        ("response_time_s", Hf_obs.Profile.Float outcome.response_time);
      ]
    ~dropped:(Hf_obs.Tracer.dropped t.tracer)
    (Hf_obs.Tracer.spans t.tracer)
