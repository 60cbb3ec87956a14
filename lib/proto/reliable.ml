(* Reliable-delivery state machine for one directed peer link.

   Sender half: sequence assignment, an in-order queue of
   unacknowledged payloads, one retransmit timer for the whole link
   (go-back-N style: a timeout resends everything outstanding — the
   receiver's dedup makes redundant copies free).  The timeout backs
   off geometrically and a retry cap turns the link unreachable.

   Receiver half: cumulative ack = highest contiguous sequence
   received, plus a sparse set of out-of-order arrivals above it.  Acks
   are owed lazily: every outgoing envelope carries the current
   cumulative ack, and only when no reverse traffic shows up within
   [ack_delay] does [poll] ask for a standalone ack message.

   No clock, no I/O: callers pass [now] and perform the actions [poll]
   returns, so the same machine runs in virtual time (simulator) and
   wall time (the TCP site clock). *)

type config = {
  ack_timeout : float;
  backoff : float;
  max_timeout : float;
  max_retries : int;
  ack_delay : float;
}

let default =
  { ack_timeout = 0.5; backoff = 2.0; max_timeout = 5.0; max_retries = 12; ack_delay = 0.05 }

let validate config =
  if config.ack_timeout <= 0.0 then invalid_arg "Reliable: ack_timeout must be positive";
  if config.backoff < 1.0 then invalid_arg "Reliable: backoff must be >= 1";
  if config.max_timeout < config.ack_timeout then
    invalid_arg "Reliable: max_timeout must be >= ack_timeout";
  if config.max_retries < 0 then invalid_arg "Reliable: max_retries must be >= 0";
  if config.ack_delay < 0.0 then invalid_arg "Reliable: ack_delay must be >= 0"

module Int_set = Set.Make (Int)

type 'a pending = { seq : int; payload : 'a; first_sent : float }

type 'a t = {
  config : config;
  (* sender half *)
  mutable next_seq : int;
  mutable pending : 'a pending list; (* oldest first *)
  mutable rto : float; (* current retransmit timeout *)
  mutable retries : int; (* consecutive timeout rounds without an ack *)
  mutable rtx_deadline : float option;
  mutable dead : bool;
  (* receiver half *)
  mutable cum : int; (* highest contiguous sequence received *)
  mutable above : Int_set.t; (* out-of-order arrivals > cum *)
  mutable owed : bool;
  mutable ack_deadline : float;
  (* instrumentation *)
  mutable retransmitted : int;
  mutable duplicates : int;
}

let create config =
  validate config;
  {
    config;
    next_seq = 1;
    pending = [];
    rto = config.ack_timeout;
    retries = 0;
    rtx_deadline = None;
    dead = false;
    cum = 0;
    above = Int_set.empty;
    owed = false;
    ack_deadline = 0.0;
    retransmitted = 0;
    duplicates = 0;
  }

(* --- sender half --- *)

let send t ~now payload =
  if t.dead then invalid_arg "Reliable.send: link unreachable";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.pending <- t.pending @ [ { seq; payload; first_sent = now } ];
  if t.rtx_deadline = None then t.rtx_deadline <- Some (now +. t.rto);
  seq

let on_ack t ~now n =
  let acked, rest = List.partition (fun p -> p.seq <= n) t.pending in
  if acked <> [] then begin
    t.pending <- rest;
    (* Progress: reset the backoff, re-arm for whatever is still out. *)
    t.rto <- t.config.ack_timeout;
    t.retries <- 0;
    t.rtx_deadline <- (if rest = [] then None else Some (now +. t.rto))
  end;
  List.map (fun p -> now -. p.first_sent) acked

let in_flight t = List.length t.pending

let unreachable t = t.dead

(* --- receiver half --- *)

let owe_ack t ~now =
  if not t.owed then begin
    t.owed <- true;
    t.ack_deadline <- now +. t.config.ack_delay
  end

let receive t ~now ~seq =
  if seq <= 0 then invalid_arg "Reliable.receive: sequence numbers start at 1";
  owe_ack t ~now;
  if seq <= t.cum || Int_set.mem seq t.above then begin
    t.duplicates <- t.duplicates + 1;
    `Duplicate
  end
  else begin
    t.above <- Int_set.add seq t.above;
    while Int_set.mem (t.cum + 1) t.above do
      t.above <- Int_set.remove (t.cum + 1) t.above;
      t.cum <- t.cum + 1
    done;
    `Fresh
  end

let take_ack t =
  t.owed <- false;
  t.cum

let ack_owed t = t.owed

(* --- timers --- *)

let next_deadline t =
  let ack = if t.owed then Some t.ack_deadline else None in
  match t.rtx_deadline, ack with
  | None, deadline | deadline, None -> deadline
  | Some a, Some b -> Some (Float.min a b)

type 'a action =
  | Retransmit of (int * 'a) list
  | Send_ack
  | Give_up of (int * 'a) list

let poll t ~now =
  let acks = if t.owed && t.ack_deadline <= now then [ Send_ack ] else [] in
  let sends =
    match t.rtx_deadline with
    | Some deadline when deadline <= now && t.pending <> [] ->
      if t.retries >= t.config.max_retries then begin
        let lost = List.map (fun p -> (p.seq, p.payload)) t.pending in
        t.dead <- true;
        t.pending <- [];
        t.rtx_deadline <- None;
        [ Give_up lost ]
      end
      else begin
        t.retries <- t.retries + 1;
        t.retransmitted <- t.retransmitted + List.length t.pending;
        t.rto <- Float.min (t.rto *. t.config.backoff) t.config.max_timeout;
        t.rtx_deadline <- Some (now +. t.rto);
        [ Retransmit (List.map (fun p -> (p.seq, p.payload)) t.pending) ]
      end
    | Some deadline when deadline <= now ->
      (* everything was acked since the timer was armed *)
      t.rtx_deadline <- None;
      []
    | Some _ | None -> []
  in
  acks @ sends

(* --- instrumentation --- *)

let retransmitted t = t.retransmitted

let duplicates t = t.duplicates
