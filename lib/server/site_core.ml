(* The per-site decisions the simulator and the TCP engine share; see
   site_core.mli.  No I/O, no clock, no credit. *)

module Oid = Hf_data.Oid
module Bloom = Hf_index.Bloom
module Bloofi = Hf_index.Bloofi
module Remote_cache = Hf_index.Remote_cache
module Work_item = Hf_engine.Work_item
module Stitch = Hf_engine.Scatter.Stitch

type exec_mode = Exec_ship | Exec_scatter | Exec_auto

type t = {
  self : int;
  cache_config : Remote_cache.config option;
  cache : Remote_cache.t option;
  mutable summary_memo : (int * Bloom.t) option;
  summary_told : (int, int) Hashtbl.t;
  mutable epoch : int;
  summaries : (int, int * Bloom.t) Hashtbl.t;
  peer_epochs : (int, int) Hashtbl.t;
  bloofi : Bloofi.t option;
  bloofi_depth : Hf_obs.Histogram.t;
  mutable locality_memo : (int * float) option;
}

let create ~self ~cache ~bloofi ~bloofi_depth =
  {
    self;
    cache_config = cache;
    cache = Option.map Remote_cache.create cache;
    summary_memo = None;
    summary_told = Hashtbl.create 4;
    epoch = 0;
    summaries = Hashtbl.create 4;
    peer_epochs = Hashtbl.create 4;
    bloofi = (if bloofi then Some (Bloofi.create ()) else None);
    bloofi_depth;
    locality_memo = None;
  }

let cache_entries t = match t.cache with None -> 0 | Some cache -> Remote_cache.length cache

let bloofi_count f t = match t.bloofi with None -> 0 | Some tree -> f tree

let epoch t = t.epoch

let learned t ~peer = Hashtbl.find_opt t.summaries peer

(* --- result bookkeeping --- *)

type results = {
  mutable oids : Oid.t list;
  mutable set : Oid.Set.t;
  merged : (string, Hf_data.Value.t list) Hashtbl.t;
}

let results () = { oids = []; set = Oid.Set.empty; merged = Hashtbl.create 4 }

let add_final f oid =
  if not (Oid.Set.mem oid f.set) then begin
    f.set <- Oid.Set.add oid f.set;
    f.oids <- oid :: f.oids
  end

let append table target values =
  let existing = match Hashtbl.find_opt table target with None -> [] | Some v -> v in
  Hashtbl.replace table target (existing @ values)

let add_bindings f extra = List.iter (fun (target, values) -> append f.merged target values) extra

type query = {
  plan : Hf_engine.Plan.t;
  origin : int;
  final : results option;
  mutable local_result_set : Oid.Set.t;
  mutable result_buffer : Oid.t list;
  bindings : (string, Hf_data.Value.t list) Hashtbl.t;
  validated : (int, int) Hashtbl.t;
  validating : (int, unit) Hashtbl.t;
  parked : (int, Work_item.t list) Hashtbl.t;
  mutable parked_count : int;
  mutable answers : (Work_item.t * bool) list;
  mutable answers_version : int;
  mutable scatter : Stitch.t option;
}

let query plan ~origin ~final =
  {
    plan;
    origin;
    final;
    local_result_set = Oid.Set.empty;
    result_buffer = [];
    bindings = Hashtbl.create 4;
    validated = Hashtbl.create 4;
    validating = Hashtbl.create 4;
    parked = Hashtbl.create 4;
    parked_count = 0;
    answers = [];
    answers_version = 0;
    scatter = None;
  }

let add_result q oid =
  if not (Oid.Set.mem oid q.local_result_set) then begin
    q.local_result_set <- Oid.Set.add oid q.local_result_set;
    match q.final with
    | Some f -> add_final f oid
    | None -> q.result_buffer <- oid :: q.result_buffer
  end

let emit q ~target values = append q.bindings target values

let take_bindings q =
  let extra = Hashtbl.fold (fun target values acc -> (target, values) :: acc) q.bindings [] in
  Hashtbl.reset q.bindings;
  extra

let flush_bindings q =
  match q.final with Some f -> add_bindings f (take_bindings q) | None -> ()

let take_results q =
  let items = List.rev q.result_buffer in
  q.result_buffer <- [];
  (items, take_bindings q)

let apply_stitched q (outcome : Stitch.outcome) =
  List.iter (add_result q) outcome.passed;
  Option.iter (fun f -> add_bindings f outcome.bindings) q.final

(* --- cache routing --- *)

type verdict =
  | Ship
  | Miss of { invalidated : bool }
  | Hit of bool
  | Pruned
  | Parked of { validate : bool }

(* Order matters for credit safety: prune and hit keep the item off
   the wire before its credit is ever split. *)
let resolve t q ~now ~can_serve ~dst ~version wi =
  let start = Work_item.start wi in
  let iters = Work_item.iters wi in
  let probes = Remote_cache.prune_probes q.plan ~start ~iters in
  let pruned =
    probes <> []
    &&
    match Hashtbl.find_opt t.summaries dst with
    | Some (v, summary) when v = version -> Remote_cache.summary_misses summary probes
    | Some _ | None -> false
  in
  if pruned then Pruned
  else
    match t.cache with
    | Some cache when Remote_cache.cacheable q.plan ~start ~iters -> (
        let key =
          Remote_cache.entry_key ~dst ~plan:q.plan ~start ~iters ~oid:(Work_item.oid wi)
        in
        match Remote_cache.lookup cache ~now ~key ~version with
        | Remote_cache.Hit passed when can_serve ->
          if passed then add_result q (Work_item.oid wi);
          Hit passed
        | Remote_cache.Hit _ -> Ship
        | Remote_cache.Invalidated -> Miss { invalidated = true }
        | Remote_cache.Absent -> Miss { invalidated = false })
    | Some _ | None -> Ship

let route t q ~now ~can_serve ~dst wi =
  match t.cache with
  | None -> Ship
  | Some _ -> (
      match Hashtbl.find_opt q.validated dst with
      | Some version -> resolve t q ~now ~can_serve ~dst ~version wi
      | None ->
        let waiting = match Hashtbl.find_opt q.parked dst with Some l -> l | None -> [] in
        Hashtbl.replace q.parked dst (wi :: waiting);
        q.parked_count <- q.parked_count + 1;
        let validate = not (Hashtbl.mem q.validating dst) in
        if validate then Hashtbl.replace q.validating dst ();
        Parked { validate })

let unpark q ~dst ~version =
  Hashtbl.remove q.validating dst;
  Option.iter (Hashtbl.replace q.validated dst) version;
  match Hashtbl.find_opt q.parked dst with
  | None -> []
  | Some waiting ->
    Hashtbl.remove q.parked dst;
    let items = List.rev waiting in
    q.parked_count <- q.parked_count - List.length items;
    items

let drop_parked q =
  Hashtbl.reset q.parked;
  q.parked_count <- 0;
  Hashtbl.reset q.validating

let record_answer t q store item ~passed =
  if
    Option.is_some t.cache
    && t.self <> q.origin
    && Remote_cache.cacheable q.plan ~start:(Work_item.start item)
         ~iters:(Work_item.iters item)
  then begin
    let v = Hf_data.Store.version store in
    if q.answers <> [] && q.answers_version <> v then q.answers <- [];
    q.answers_version <- v;
    q.answers <- (item, passed) :: q.answers
  end

let take_answers q =
  match q.answers with
  | [] -> None
  | answers ->
    q.answers <- [];
    Some (q.answers_version, List.rev answers)

let fill t q ~now ~peer ~version answers =
  match t.cache with
  | None -> 0
  | Some cache ->
    List.iter
      (fun (wi, passed) ->
        let key =
          Remote_cache.entry_key ~dst:peer ~plan:q.plan ~start:(Work_item.start wi)
            ~iters:(Work_item.iters wi) ~oid:(Work_item.oid wi)
        in
        Remote_cache.put cache ~now ~key ~version ~passed)
      answers;
    List.length answers

(* --- peer knowledge --- *)

let own_summary t store =
  Option.map
    (fun cfg ->
      let version = Hf_data.Store.version store in
      match t.summary_memo with
      | Some (v, bloom) when v = version -> bloom
      | Some _ | None ->
        let bloom = Remote_cache.summary_of_store cfg store in
        t.summary_memo <- Some (version, bloom);
        bloom)
    t.cache_config

(* The epoch counts the recomputes a validation answer triggers, so it
   is bumped only when the memo was stale at answer time. *)
let answer_validate t store ~peer =
  let version = Hf_data.Store.version store in
  let fresh = match t.summary_memo with Some (v, _) -> v = version | None -> false in
  let summary =
    match own_summary t store with
    | None -> None (* not participating: version-only reply *)
    | Some bloom ->
      if not fresh then t.epoch <- t.epoch + 1;
      if match Hashtbl.find_opt t.summary_told peer with Some v -> v = version | None -> false
      then None (* the asker already holds this version's summary *)
      else begin
        Hashtbl.replace t.summary_told peer version;
        Some bloom
      end
  in
  (version, summary)

let forget t peer =
  Hashtbl.remove t.summaries peer;
  Option.iter (fun tree -> Bloofi.remove tree ~site:peer) t.bloofi

let learn t ~peer ~version ~epoch summary =
  (* An epoch regression means the peer's summary lineage restarted:
     its new store version can collide with the old one's, so the
     summary, the Bloofi leaf and the version-keyed verdicts all go. *)
  (match Hashtbl.find_opt t.peer_epochs peer with
   | Some e when epoch < e ->
     forget t peer;
     Option.iter (fun cache -> Remote_cache.drop_dst cache ~dst:peer) t.cache
   | Some _ | None -> ());
  Hashtbl.replace t.peer_epochs peer epoch;
  match summary with
  | Some bloom ->
    Hashtbl.replace t.summaries peer (version, bloom);
    Option.iter (fun tree -> Bloofi.insert tree ~site:peer bloom) t.bloofi
  | None -> (
      (* No summary aboard means "you already have it"; if ours is for
         another version (the reply that carried the new one was lost,
         or it did not decode), a stale summary must never prune. *)
      match Hashtbl.find_opt t.summaries peer with
      | Some (v, _) when v <> version -> forget t peer
      | Some _ | None -> ())

(* --- the planner's front end --- *)

let p_local t ~locate store =
  let version = Hf_data.Store.version store in
  match t.locality_memo with
  | Some (v, p) when v = version -> p
  | Some _ | None ->
    let total = ref 0 and local = ref 0 in
    Hf_data.Store.iter store (fun obj ->
        List.iter
          (fun target ->
            incr total;
            if locate target = t.self then incr local)
          (Hf_data.Hobject.pointers obj));
    let p = if !total = 0 then 1.0 else float_of_int !local /. float_of_int !total in
    t.locality_memo <- Some (version, p);
    p

(* The lazy half of leaf upkeep: upsert peers whose filter changed
   (physical inequality — a leaf holds the very block it was given, and
   an unchanged summary is the same block) and drop peers the summary
   source no longer vouches for. *)
let sync t peers =
  Option.iter
    (fun tree ->
      List.iter
        (fun (site, (_, summary)) ->
          match (summary, Bloofi.filter_of tree ~site) with
          | Some bloom, Some installed when installed == bloom -> ()
          | Some bloom, _ -> Bloofi.insert tree ~site bloom
          | None, Some _ -> Bloofi.remove tree ~site
          | None, None -> ())
        peers)
    t.bloofi

let descend t groups =
  match t.bloofi with
  | Some tree when Bloofi.cardinal tree > 0 ->
    let r = Bloofi.probe tree groups in
    Hf_obs.Histogram.observe t.bloofi_depth (float_of_int r.depth);
    let may = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace may s ()) r.sites;
    Some (tree, may, r)
  | Some _ | None -> None

let start_probes plan =
  Remote_cache.prune_probes plan ~start:0
    ~iters:(Array.make (Hf_engine.Plan.iter_count plan) 0)

let plan_decision t ~locate ~store ~peers ~costs program initial =
  let plan = Hf_engine.Plan.make program in
  let zeros = Array.make (Hf_engine.Plan.iter_count plan) 0 in
  let seed_sites =
    List.fold_left
      (fun acc oid ->
        let s = locate oid in
        match List.assoc_opt s acc with
        | Some n -> (s, n + 1) :: List.remove_assoc s acc
        | None -> (s, 1) :: acc)
      [] initial
  in
  let landing_groups =
    List.map
      (fun pc -> Remote_cache.prune_probes plan ~start:pc ~iters:zeros)
      (Hf_query.Plan.landing_pcs program)
  in
  let start = start_probes plan in
  let may probes bloom = probes = [] || not (Remote_cache.summary_misses bloom probes) in
  (* With the tree on, one descent answers the landing verdicts for
     every indexed peer; leaves are the flat filters, so the verdicts
     are identical and only the probe cost (and [decision.index])
     changes. *)
  sync t peers;
  let index = descend t landing_groups in
  let hints =
    List.map
      (fun (site, (objects, summary)) ->
        let may_match =
          match index with
          | Some (tree, may_set, _) when Bloofi.mem tree ~site -> Some (Hashtbl.mem may_set site)
          | Some _ | None ->
            Option.map
              (fun bloom -> landing_groups = [] || List.exists (fun g -> may g bloom) landing_groups)
              summary
        in
        { Hf_query.Plan.site; objects; may_match; seed_may_match = Option.map (may start) summary })
      peers
  in
  let item_bytes = 13 + 4 + (4 * Hf_engine.Plan.iter_count plan) in
  Hf_query.Plan.decide ~program ~origin:t.self ~seed_sites ~hints
    ?index:
      (Option.map
         (fun (tree, _, (r : Bloofi.probe_result)) ->
           let indexed = Bloofi.cardinal tree in
           {
             Hf_query.Plan.indexed;
             touched = r.touched;
             depth = r.depth;
             pruned = indexed - List.length r.sites;
           })
         index)
    ~costs:(costs ~item_bytes ~p_local:(p_local t ~locate store))
    ()

let requery_sites t ~peers plan sites =
  match t.bloofi with
  | None -> sites
  | Some _ -> (
      sync t peers;
      let probes = start_probes plan in
      match if probes = [] then None else descend t [ probes ] with
      | None -> sites
      | Some (tree, may, _) ->
        List.filter (fun s -> Hashtbl.mem may s || not (Bloofi.mem tree ~site:s)) sites)

let choose exec ~can_scatter decide =
  match exec with
  | Exec_ship -> (None, None)
  | Exec_scatter | Exec_auto ->
    let d = decide () in
    let scatter =
      can_scatter && d.Hf_query.Plan.eligible && d.predicted <> []
      &&
      match exec with
      | Exec_auto -> Hf_query.Plan.equal_mode d.chosen Hf_query.Plan.Scatter
      | Exec_ship | Exec_scatter -> true
    in
    (Some d, if scatter then Some d.predicted else None)

(* --- scatter seeding --- *)

let scatter_seed q ~locate ~sites initial =
  let members = q.origin :: sites in
  let member = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace member s ()) members;
  let roots = Hashtbl.create 8 in
  let stray = ref [] in
  List.iter
    (fun oid ->
      let s = locate oid in
      if Hashtbl.mem member s then
        Hashtbl.replace roots s
          (oid :: (match Hashtbl.find_opt roots s with Some l -> l | None -> []))
      else stray := oid :: !stray)
    initial;
  let roots_of s = match Hashtbl.find_opt roots s with Some l -> List.rev l | None -> [] in
  let stitch =
    Stitch.create ~plan:q.plan ~locate ~sites:members
      ~roots:(List.map (fun s -> (s, roots_of s)) members)
  in
  q.scatter <- Some stitch;
  (roots_of, List.rev !stray)

let gather q ~site nodes =
  match q.scatter with
  | None -> Stitch.empty_outcome
  | Some stitch -> Stitch.add_gather stitch ~site nodes
