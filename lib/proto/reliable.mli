(** Reliable-delivery state machine for one directed peer link.

    The query-shipping protocol (paper, Section 3.2) assumes messages
    arrive; this module supplies that assumption over a lossy transport.
    One ['a t] lives at each endpoint of an ordered site pair and holds
    both halves of the link:

    - the {e sender} half assigns per-destination sequence numbers,
      keeps sent-but-unacknowledged payloads, and retransmits them on
      ack timeout with exponential backoff until a retry cap declares
      the peer unreachable;
    - the {e receiver} half tracks the highest contiguous sequence
      received (the cumulative ack, piggybacked on reverse traffic the
      way Section 3.2 piggybacks credit) plus a sparse set of
      out-of-order arrivals, so redelivered messages are recognized and
      dropped — retransmission never double-evaluates work or
      double-returns credit.

    The module owns no clock and no wire: callers pass [now] in, and
    {!poll} returns the actions (retransmit / standalone ack / give up)
    the caller must perform.  The same state machine therefore runs
    under the discrete-event simulator (virtual time, timer events on
    the event queue) and the TCP transport (wall time, the site
    clock). *)

type config = {
  ack_timeout : float;  (** initial retransmit timeout (seconds). *)
  backoff : float;  (** timeout multiplier per retry round ([>= 1]). *)
  max_timeout : float;  (** cap on the backed-off timeout. *)
  max_retries : int;
      (** retransmission rounds without progress before the peer is
          declared unreachable. *)
  ack_delay : float;
      (** how long the receiver may hold a pending ack hoping to
          piggyback it on reverse traffic before sending it
          standalone. *)
}

val default : config
(** 0.5 s initial timeout, doubling to a 5 s cap, 12 retries, 50 ms
    delayed ack — give-up after roughly a minute of silence. *)

val validate : config -> unit
(** Raises [Invalid_argument] on non-positive timeouts, [backoff < 1]
    or negative retries. *)

type 'a t

val create : config -> 'a t

(** {1 Sender half} *)

val send : 'a t -> now:float -> 'a -> int
(** Assign the next sequence number (numbering starts at 1) to
    [payload], retain it for retransmission, and arm the ack timer.
    Raises [Invalid_argument] if the link is already {!unreachable} —
    callers must check first and fail the message instead. *)

val on_ack : 'a t -> now:float -> int -> float list
(** Process a cumulative ack: every retained payload with sequence
    [<= n] is delivered and forgotten.  Returns the ack latency
    (seconds since first transmission) of each newly acknowledged
    message; progress resets the backoff. *)

val in_flight : 'a t -> int
(** Sent-but-unacknowledged messages currently retained. *)

val unreachable : 'a t -> bool
(** The retry cap fired; the link no longer accepts {!send}. *)

(** {1 Receiver half} *)

val receive : 'a t -> now:float -> seq:int -> [ `Fresh | `Duplicate ]
(** Record an arriving sequence number.  [`Duplicate] means the message
    was already delivered once (or is buffered out of order) and must
    be dropped by the caller.  Either way an ack becomes owed — a
    duplicate usually means the previous ack was lost, so it is
    re-acknowledged. *)

val take_ack : 'a t -> int
(** The cumulative ack to stamp on an outgoing message (highest
    contiguous sequence received; 0 before anything arrived).  Clears
    the owed-ack state: callers stamp every outgoing envelope, so any
    reverse traffic carries the ack for free. *)

val ack_owed : 'a t -> bool

(** {1 Timers} *)

val next_deadline : 'a t -> float option
(** Earliest time {!poll} will have something to do: the retransmit
    deadline of the oldest unacknowledged message, or the delayed-ack
    deadline, whichever comes first.  [None] when the link is idle. *)

type 'a action =
  | Retransmit of (int * 'a) list
      (** resend these (sequence, payload) pairs, stamping a fresh
          cumulative ack. *)
  | Send_ack
      (** no reverse traffic carried the ack in time: send a standalone
          ack message (its cumulative value comes from {!take_ack}). *)
  | Give_up of (int * 'a) list
      (** the retry cap fired: the link is now {!unreachable} and these
          payloads will never be delivered — reclaim what they carried
          (e.g. return their termination credit). *)

val poll : 'a t -> now:float -> 'a action list
(** Fire every deadline at or before [now]; safe to call spuriously. *)

(** {1 Instrumentation} *)

val retransmitted : 'a t -> int
(** Total payload retransmissions performed over the link's lifetime. *)

val duplicates : 'a t -> int
(** Arrivals reported [`Duplicate]. *)
