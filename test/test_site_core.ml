(* Tests for Hf_server.Site_core: the peer-knowledge and cache-routing
   rules both engines share, exercised directly on the core with no
   engine around it. *)

module Core = Hf_server.Site_core
module Rc = Hf_index.Remote_cache
module Store = Hf_data.Store
module Tuple = Hf_data.Tuple

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let core () =
  Core.create ~self:0 ~cache:(Some Rc.default) ~bloofi:true
    ~bloofi_depth:(Hf_obs.Histogram.create ())

(* A peer store holding one keyword object, and its summary. *)
let peer_summary keyword =
  let store = Store.create ~site:1 in
  Store.insert store
    (Hf_data.Hobject.of_tuples (Store.fresh_oid store) [ Tuple.keyword keyword ]);
  Rc.summary_of_store Rc.default store

let plan_of body =
  Hf_engine.Plan.make (Hf_query.Compile.compile (Hf_query.Parser.parse_body body))

(* A cacheable item whose first filter selects [keyword], and an
   originator-side query state for its plan. *)
let item keyword =
  let plan = plan_of (Printf.sprintf "(Keyword, %S, ?)" keyword) in
  let store = Store.create ~site:1 in
  let wi = Hf_engine.Work_item.initial plan (Store.fresh_oid store) in
  (Core.query plan ~origin:0 ~final:(Some (Core.results ())), wi)

let is_verdict expected got =
  match (expected, got) with
  | `Pruned, Core.Pruned | `Ship, Core.Ship -> true
  | `Hit b, Core.Hit b' -> Bool.equal b b'
  | `Miss inv, Core.Miss { invalidated } -> Bool.equal inv invalidated
  | _, _ -> false

let indexed c = Core.bloofi_count Hf_index.Bloofi.cardinal c

let test_epoch_regression_drops_everything () =
  let c = core () in
  let q, wi = item "alpha" in
  Core.learn c ~peer:1 ~version:5 ~epoch:3 (Some (peer_summary "alpha"));
  Core.learn c ~peer:2 ~version:5 ~epoch:1 (Some (peer_summary "alpha"));
  check_int "filled" 1 (Core.fill c q ~now:0.0 ~peer:1 ~version:5 [ (wi, true) ]);
  check_int "filled" 1 (Core.fill c q ~now:0.0 ~peer:2 ~version:5 [ (wi, false) ]);
  check_bool "hit before" true
    (is_verdict (`Hit true) (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:1 ~version:5 wi));
  check_int "both leaves" 2 (indexed c);
  (* peer 1 restarted: its epoch counter went back to 1, and its new
     lineage happens to sit at the same store version *)
  Core.learn c ~peer:1 ~version:5 ~epoch:1 None;
  check_bool "summary gone" true (Option.is_none (Core.learned c ~peer:1));
  check_int "leaf gone" 1 (indexed c);
  check_bool "verdict gone" true
    (is_verdict (`Miss false)
       (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:1 ~version:5 wi));
  (* the other peer is untouched *)
  check_bool "other summary kept" true (Option.is_some (Core.learned c ~peer:2));
  check_bool "other verdict kept" true
    (is_verdict (`Hit false) (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:2 ~version:5 wi))

let test_summaryless_reply_drops_stale_summary () =
  let c = core () in
  Core.learn c ~peer:1 ~version:5 ~epoch:1 (Some (peer_summary "alpha"));
  (* same version: "you already have it" — kept *)
  Core.learn c ~peer:1 ~version:5 ~epoch:1 None;
  check_bool "kept at its version" true (Option.is_some (Core.learned c ~peer:1));
  check_int "leaf kept" 1 (indexed c);
  (* another version without a summary: the held one is stale *)
  Core.learn c ~peer:1 ~version:6 ~epoch:1 None;
  check_bool "dropped at another version" true (Option.is_none (Core.learned c ~peer:1));
  check_int "leaf dropped" 0 (indexed c)

let test_prune_only_at_validated_version () =
  let c = core () in
  let q, wi = item "nope" in
  Core.learn c ~peer:1 ~version:5 ~epoch:1 (Some (peer_summary "alpha"));
  check_bool "pruned at the summary's version" true
    (is_verdict `Pruned (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:1 ~version:5 wi));
  check_bool "not pruned at another version" true
    (is_verdict (`Miss false)
       (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:1 ~version:6 wi));
  check_bool "no summary, no prune" true
    (is_verdict (`Miss false)
       (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:2 ~version:5 wi))

let test_hit_served_only_when_driver_can () =
  let c = core () in
  let q, wi = item "alpha" in
  let oid = Hf_engine.Work_item.oid wi in
  ignore (Core.fill c q ~now:0.0 ~peer:1 ~version:5 [ (wi, true) ]);
  check_bool "unservable hit ships" true
    (is_verdict `Ship (Core.resolve c q ~now:0.0 ~can_serve:false ~dst:1 ~version:5 wi));
  check_bool "nothing recorded" false (Hf_data.Oid.Set.mem oid q.local_result_set);
  check_bool "served" true
    (is_verdict (`Hit true) (Core.resolve c q ~now:0.0 ~can_serve:true ~dst:1 ~version:5 wi));
  check_bool "result recorded" true (Hf_data.Oid.Set.mem oid q.local_result_set);
  check_bool "in the final answer" true
    (Hf_data.Oid.Set.mem oid (Option.get q.final).set)

(* Parking: the first item for an unvalidated destination asks for a
   validation, later ones wait behind it; settling hands them back in
   arrival order and marks the destination validated. *)
let test_park_and_unpark () =
  let c = core () in
  let q, wi = item "alpha" in
  let plan = q.plan in
  let store = Store.create ~site:1 in
  let wi2 = Hf_engine.Work_item.initial plan (Store.fresh_oid store) in
  let parked v = match v with Core.Parked { validate } -> Some validate | _ -> None in
  Alcotest.(check (option bool)) "first asks" (Some true)
    (parked (Core.route c q ~now:0.0 ~can_serve:true ~dst:1 wi));
  Alcotest.(check (option bool)) "second waits" (Some false)
    (parked (Core.route c q ~now:0.0 ~can_serve:true ~dst:1 wi2));
  check_int "count" 2 q.parked_count;
  let back = Core.unpark q ~dst:1 ~version:(Some 5) in
  check_bool "arrival order" true
    (List.equal Hf_engine.Work_item.equal back [ wi; wi2 ]);
  check_int "drained" 0 q.parked_count;
  check_bool "validated route resolves" true
    (is_verdict (`Miss false) (Core.route c q ~now:0.0 ~can_serve:true ~dst:1 wi))

(* Answering validations: the asker gets this version's summary once,
   the epoch counts summary recomputes (not answers), and a store
   mutation makes the next answer carry a fresh summary again. *)
let test_answer_validate_once_per_version () =
  let c = core () in
  let store = Store.create ~site:0 in
  Store.insert store
    (Hf_data.Hobject.of_tuples (Store.fresh_oid store) [ Tuple.keyword "alpha" ]);
  let v0 = Store.version store in
  let e0 = Core.epoch c in
  let version, summary = Core.answer_validate c store ~peer:1 in
  check_int "version" v0 version;
  check_bool "first answer carries the summary" true (Option.is_some summary);
  check_int "recompute bumps the epoch" (e0 + 1) (Core.epoch c);
  let _, again = Core.answer_validate c store ~peer:1 in
  check_bool "second answer is version-only" true (Option.is_none again);
  let _, other = Core.answer_validate c store ~peer:2 in
  check_bool "another peer still gets it" true (Option.is_some other);
  check_int "memo hit keeps the epoch" (e0 + 1) (Core.epoch c);
  Store.insert store
    (Hf_data.Hobject.of_tuples (Store.fresh_oid store) [ Tuple.keyword "beta" ]);
  let version', fresh = Core.answer_validate c store ~peer:1 in
  check_bool "store moved on" true (version' <> v0);
  check_bool "new version, new summary" true (Option.is_some fresh);
  check_int "second recompute" (e0 + 2) (Core.epoch c);
  let off =
    Core.create ~self:0 ~cache:None ~bloofi:false ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let _, none = Core.answer_validate off store ~peer:1 in
  check_bool "cache off: no summary" true (Option.is_none none);
  check_int "cache off: no epoch" 0 (Core.epoch off)

(* Scatter seeding: seeds placed on the originator or a scattered site
   become that member's roots in input order; the rest are strays, and
   the stitch is opened. *)
let test_scatter_seed_partition () =
  let q, _ = item "alpha" in
  let oid site serial = Hf_data.Oid.make ~birth_site:site ~serial in
  let seeds = [ oid 0 1; oid 2 1; oid 1 1; oid 2 2; oid 0 2 ] in
  let roots, strays =
    Core.scatter_seed q ~locate:Hf_data.Oid.birth_site ~sites:[ 2 ] seeds
  in
  let same = List.equal Hf_data.Oid.equal in
  check_bool "originator's roots" true (same (roots 0) [ oid 0 1; oid 0 2 ]);
  check_bool "scattered site's roots" true (same (roots 2) [ oid 2 1; oid 2 2 ]);
  check_bool "non-member has none" true (same (roots 1) []);
  check_bool "strays" true (same strays [ oid 1 1 ]);
  check_bool "stitch opened" true (Option.is_some q.scatter)

let () =
  Alcotest.run "hf_site_core"
    [
      ( "peer knowledge",
        [
          Alcotest.test_case "epoch regression drops summary, leaf and verdicts" `Quick
            test_epoch_regression_drops_everything;
          Alcotest.test_case "summary-less reply drops a stale summary" `Quick
            test_summaryless_reply_drops_stale_summary;
          Alcotest.test_case "validation answer carries a summary once per version" `Quick
            test_answer_validate_once_per_version;
        ] );
      ( "cache routing",
        [
          Alcotest.test_case "prune only at the validated version" `Quick
            test_prune_only_at_validated_version;
          Alcotest.test_case "hit served only when the driver can" `Quick
            test_hit_served_only_when_driver_can;
          Alcotest.test_case "park and unpark" `Quick test_park_and_unpark;
        ] );
      ( "scatter seeding",
        [
          Alcotest.test_case "seeds partitioned over members" `Quick
            test_scatter_seed_partition;
        ] );
    ]
