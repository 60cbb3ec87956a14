(* Wall-clock benchmark of the TCP engine: three Tcp_site sites over
   loopback in this process, queries submitted at site 0 through
   submit_query/await by one closed-loop client, each call timed from
   outside and each answer checked against Hf_engine.Local over the
   union of the stores.

     tcpbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics; --trace 1 makes the
   separate traced run and prints the per-layer ones.  Either way the
   last line of standard output is one JSON object; the exit code is 1
   when any answer is wrong.  NOTES.md describes the workloads and what
   each metric should move. *)

module Tcp = Hf_net.Tcp_site
module Prng = Hf_util.Prng
module Store = Hf_data.Store
module Oid = Hf_data.Oid
module Registry = Hf_obs.Registry
module Tracer = Hf_obs.Tracer
module Span = Hf_obs.Span
module M = Hf_perfbench.Metrics
module W = Workloads

let now = Unix.gettimeofday

let query_timeout = 10.0

(* set-ups per end-to-end run; setup_s is their median *)
let setups = 3

(* operations between folds of the tracer's spans in the traced window,
   which keeps the retained spans bounded *)
let traced_round = 20

let out_dir = "perfbench/out"

(* --- one operation, timed from the client's side --- *)

type answer = {
  status : Tcp.status;
  result_set : Oid.Set.t;
  response_time : float;
  queue_wait_s : float;
  traced : (Tcp.handle * Tcp.outcome) option;
}

type result = Wrote | Answered of answer | Refused of string | Raised of string

type record = { op : W.op; latency : float; result : result }

let execute ~keep sites (op : W.op) =
  let origin = sites.(0) in
  match op with
  | W.Write { site; obj } ->
    let t0 = now () in
    Store.replace (Tcp.store sites.(site)) obj;
    { op; latency = now () -. t0; result = Wrote }
  | W.Query { program; roots; _ } ->
    let t0 = now () in
    let result, timed_out =
      match Tcp.submit_query origin program roots with
      | exception Failure msg -> (Refused msg, None)
      | exception e -> (Raised (Printexc.to_string e), None)
      | handle -> (
        match Tcp.await ~timeout:query_timeout origin handle with
        | exception e -> (Raised (Printexc.to_string e), None)
        | o ->
          ( Answered
              {
                status = o.Tcp.status;
                result_set = o.Tcp.result_set;
                response_time = o.Tcp.response_time;
                queue_wait_s = o.Tcp.queue_wait_s;
                traced = (if keep then Some (handle, o) else None);
              },
            match o.Tcp.status with Tcp.Timed_out -> Some handle | _ -> None ))
    in
    let latency = now () -. t0 in
    Option.iter (Tcp.cancel origin) timed_out;
    { op; latency; result }

(* The closed loop: take the next operation until [take] says stop, run
   it, and only then take another.  With one client, writes never
   overlap a query — Tcp_site has no locked store-mutation API. *)
let drive ~take ~run =
  let rec loop acc = match take () with None -> List.rev acc | Some op -> loop (run op :: acc) in
  loop []

let counted n next =
  let left = ref n in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      Some (next ())
    end

let until deadline next () = if now () < deadline then Some (next ()) else None

(* --- cluster set-up --- *)

type cluster = {
  sites : Tcp.t array;
  next_op : Prng.t -> W.op;
  base : Hf_data.Hobject.t Oid.Table.t;  (** every object right after loading. *)
  warm_log : record list;
  setup_s : float;
}

(* Create the sites, set peers, load the stores and warm up; the copy of
   the loaded objects the oracle starts from is not timed. *)
let start (wl : W.t) ~tracer ~warm_seed =
  let t0 = now () in
  let cache = if wl.W.cache then Some Hf_index.Remote_cache.default else None in
  let sites =
    Array.init W.n_sites (fun site -> Tcp.create ~site ~exec:wl.W.exec ?cache ~tracer ())
  in
  let addresses = Array.map Tcp.address sites in
  Array.iter (fun s -> Tcp.set_peers s addresses) sites;
  let next_op = wl.W.load (Array.map Tcp.store sites) in
  let loaded = now () in
  let base = Oid.Table.create 4096 in
  Array.iter
    (fun s -> Store.iter (Tcp.store s) (fun o -> Oid.Table.replace base (Hf_data.Hobject.oid o) o))
    sites;
  let t1 = now () in
  let prng = Prng.create warm_seed in
  let warm_log =
    drive ~take:(counted wl.W.warmup_ops (fun () -> next_op prng)) ~run:(execute ~keep:false sites)
  in
  let setup_s = loaded -. t0 +. (now () -. t1) in
  { sites; next_op; base; warm_log; setup_s }

let stop c = Array.iter Tcp.shutdown c.sites

(* --- the oracle --- *)

(* A checker that replays a cluster's operations, in the order they
   ran, over a copy of its loaded objects: each write lands before the
   queries after it, and each query is evaluated by the single-store
   Local engine.  Returns the attempt's verdict for a query, [None] for
   a write; failures are printed. *)
let oracle c =
  let objects = Oid.Table.copy c.base in
  let find oid = Oid.Table.find_opt objects oid in
  let memo = Hashtbl.create 256 in
  fun r ->
    match (r.op, r.result) with
    | W.Write { obj; _ }, _ ->
      Oid.Table.replace objects (Hf_data.Hobject.oid obj) obj;
      Hashtbl.reset memo;
      None
    | W.Query { label; program; roots }, result ->
      let expected () =
        match Hashtbl.find_opt memo label with
        | Some set -> set
        | None ->
          let set = (Hf_engine.Local.run ~find program roots).Hf_engine.Local.result_set in
          Hashtbl.replace memo label set;
          set
      in
      let attempt, why =
        match result with
        | Wrote -> invalid_arg "oracle: a query recorded as a write"
        | Refused m -> (M.Rejected, "rejected: " ^ m)
        | Raised m -> (M.Raised, "raised: " ^ m)
        | Answered a -> (
          match a.status with
          | Tcp.Complete ->
            if Oid.Set.equal a.result_set (expected ()) then (M.Correct, "")
            else (M.Wrong_result, "result set differs from the Local oracle")
          | Tcp.Timed_out -> (M.Timed_out, "timed out")
          | Tcp.Partial _ | Tcp.Cancelled -> (M.Not_complete, "not Complete"))
      in
      if attempt <> M.Correct then Printf.printf "FAILED %s: %s\n%!" label why;
      Some attempt

(* --- counters the program exports --- *)

let cluster_snapshot sites =
  Registry.merge_snapshots
    (Array.to_list (Array.map (fun s -> Registry.snapshot (Tcp.registry s)) sites))

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Registry.Counter_value n) -> float_of_int n
  | Some (Registry.Gauge_value _ | Registry.Histogram_value _) | None -> 0.0

(* process CPU seconds: (user + sys, sys) *)
let cpu_s () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_stime)

(* --- a measured window --- *)

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* MiB still reachable after a full major collection *)
let live_mib () =
  Gc.full_major ();
  mib (Gc.stat ()).Gc.live_words

type window = {
  log : record list;
  wall_s : float;
  cpu_s : float;
  sys_s : float;
  before : Registry.snapshot;
  after : Registry.snapshot;
  minor_words : float;
  major_collections : int;
  live_before_mib : float;  (** the set-up cluster, before the window. *)
  live_after_mib : float;
}

let measure c ~seconds ~window_seed =
  let prng = Prng.create window_seed in
  let live_before_mib = live_mib () in
  let before = cluster_snapshot c.sites in
  let gc0 = Gc.quick_stat () in
  let cpu0, sys0 = cpu_s () in
  let t0 = now () in
  let log =
    drive
      ~take:(until (t0 +. seconds) (fun () -> c.next_op prng))
      ~run:(execute ~keep:false c.sites)
  in
  let wall_s = now () -. t0 in
  let cpu1, sys1 = cpu_s () in
  let gc1 = Gc.quick_stat () in
  (* let post-termination housekeeping frames land before counting bytes *)
  Thread.delay 0.05;
  {
    log;
    wall_s;
    cpu_s = cpu1 -. cpu0;
    sys_s = sys1 -. sys0;
    before;
    after = cluster_snapshot c.sites;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    live_before_mib;
    live_after_mib = live_mib ();
  }

let answers log =
  List.filter_map (fun r -> match r.result with Answered a -> Some (r, a) | _ -> None) log

let queries log = List.filter (fun r -> match r.op with W.Query _ -> true | W.Write _ -> false) log

let writes log = List.length log - List.length (queries log)

let delta w name = counter w.after name -. counter w.before name

let live_bytes_per_query w =
  M.ratio
    ((w.live_after_mib -. w.live_before_mib) *. 1048576.0)
    (float_of_int (List.length (queries w.log)))

(* --- output --- *)

type metric = { name : string; value : float; unit_ : string }

let print_metrics metrics =
  List.iter (fun m -> Printf.printf "%-34s %16.6f %s\n" m.name m.value m.unit_) metrics

let json_line ~correct ~attempted ~failed metrics =
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let metric m = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (value m.value) m.unit_ in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let ms x = x *. 1000.0

let median_ms samples = ms (M.median (M.sorted samples))

(* --- end-to-end run --- *)

let end_to_end (wl : W.t) ~seed ~seconds ~warm_seed ~window_seed =
  (* only the last set-up's cluster stays up, so the others do not count
     in the live heap *)
  let times =
    List.init (setups - 1) (fun _ ->
        let c = start wl ~tracer:Tracer.noop ~warm_seed in
        stop c;
        c.setup_s)
  in
  let c = start wl ~tracer:Tracer.noop ~warm_seed in
  let setup_s = M.median (M.sorted (c.setup_s :: times)) in
  let w = measure c ~seconds ~window_seed in
  let peak_heap_mb = mib (Gc.quick_stat ()).Gc.top_heap_words in
  stop c;
  let check = oracle c in
  let warm_failed = M.failed (List.filter_map check c.warm_log) in
  let attempts = List.filter_map check w.log in
  let attempted = List.length attempts and failed = M.failed attempts in
  let completed = float_of_int (attempted - failed) in
  let latencies = M.sorted (List.map (fun r -> r.latency) (queries w.log)) in
  let tail_value, tail_pct = Option.value (M.tail latencies) ~default:(Float.nan, Float.nan) in
  let metrics =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "queries_per_s"; value = completed /. w.wall_s; unit_ = "1/s" };
      { name = "latency_p50_ms"; value = ms (M.median latencies); unit_ = "ms" };
      { name = "correct_share"; value = 1.0 -. M.failed_share attempts; unit_ = "share" };
      {
        name = "wire_bytes_per_query";
        value = M.ratio (delta w "hf.net.bytes_sent") (float_of_int attempted);
        unit_ = "bytes";
      };
      { name = "live_heap_mb"; value = w.live_before_mib; unit_ = "MiB" };
    ]
  in
  let n = Array.length latencies in
  Printf.printf "workload %s, seed %d: %s; loopback TCP only\n" wl.W.name seed wl.W.sizes;
  Printf.printf "window %.2f s: %d queries, %d writes; failed_share %.6f (%d of %d)\n" w.wall_s
    attempted (writes w.log) (M.failed_share attempts) failed attempted;
  (* printed here and reported by the traced run, but not gated: they
     follow the host's CPU speed (NOTES.md) *)
  Printf.printf "latency_p99_ms %.3f ms: p%.2f of %d samples (%d beyond it)\n" (ms tail_value)
    tail_pct n
    (match M.tail_index n with Some i -> n - 1 - i | None -> 0);
  Printf.printf "cpu_ms_per_query %.3f ms\n" (ms (M.ratio w.cpu_s completed));
  Printf.printf "peak heap (Gc.top_heap_words) %.3f MiB\n" peak_heap_mb;
  Printf.printf "live heap grew %.3f MiB over the window (%.0f bytes per query)\n"
    (w.live_after_mib -. w.live_before_mib)
    (live_bytes_per_query w);
  Printf.printf "engine response_time p50 %.3f ms; client latency minus response_time p50 %.3f ms\n"
    (median_ms (List.map (fun (_, a) -> a.response_time) (answers w.log)))
    (median_ms (List.map (fun (r, a) -> r.latency -. a.response_time) (answers w.log)));
  (* await returns on a 20 ms ticker (NOTES.md), so latencies cluster
     just above multiples of 20 ms *)
  let periods = Hashtbl.create 8 in
  Array.iter
    (fun l ->
      let k = int_of_float (l /. 0.02) in
      Hashtbl.replace periods k (1 + Option.value (Hashtbl.find_opt periods k) ~default:0))
    latencies;
  Printf.printf "latency by 20 ms period:%s\n"
    (String.concat ""
       (List.map
          (fun (k, count) -> Printf.sprintf " [%d,%d) ms: %d" (20 * k) (20 * (k + 1)) count)
          (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) periods []))));
  Option.iter
    (fun (first, last) ->
      Printf.printf "drift: mean latency %.3f ms over the first tenth, %.3f ms over the last\n"
        first last)
    (M.first_last_tenth (Array.of_list (List.map (fun r -> ms r.latency) (queries w.log))));
  print_metrics metrics;
  let correct = failed = 0 && warm_failed = 0 in
  json_line ~correct ~attempted ~failed metrics;
  correct

(* --- traced run: per-layer numbers --- *)

(* Self time per phase over one query's spans: a span's duration minus
   the part of it that its children cover.  Spans that overlap in time
   (messages in flight at once) each count in full. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.add children s.Span.parent s) spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
      let clipped =
        List.filter_map
          (fun (c : Span.t) ->
            let lo = Float.max s.Span.start c.Span.start
            and hi = Float.min s.Span.finish c.Span.finish in
            if hi > lo then Some (lo, hi) else None)
          (Hashtbl.find_all children s.Span.id)
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (lo, hi) ->
            let lo = Float.max lo reach in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, reach))
          (0.0, Float.neg_infinity) clipped
      in
      let self = Float.max 0.0 (Span.duration s -. covered) in
      let old = Option.value (Hashtbl.find_opt totals s.Span.phase) ~default:0.0 in
      Hashtbl.replace totals s.Span.phase (old +. self))
    spans;
  totals

let profiled_phases =
  Span.
    [
      ("eval", Eval);
      ("ship", Ship);
      ("recv", Recv);
      ("credit", Credit);
      ("drain", Drain);
      ("wait", Wait);
      ("cache", Cache);
    ]

type folded = {
  phase_s : (Span.phase, float) Hashtbl.t;
  mutable rounds : int;
  mutable profiled : int;
  mutable dropped : int;
}

(* Fold the spans of the queries in [log] with Tcp_site.profile (ship
   rounds, dropped spans) and [self_times]. *)
let fold_profiles f tracer origin log =
  let by_query = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.add by_query s.Span.query s) (Tracer.spans tracer);
  List.iter
    (fun (_, a) ->
      Option.iter
        (fun (h, o) ->
          let p = Tcp.profile origin h o in
          f.profiled <- f.profiled + 1;
          f.rounds <- f.rounds + p.Hf_obs.Profile.rounds;
          f.dropped <- max f.dropped p.Hf_obs.Profile.dropped_spans;
          Hashtbl.iter
            (fun phase self ->
              let old = Option.value (Hashtbl.find_opt f.phase_s phase) ~default:0.0 in
              Hashtbl.replace f.phase_s phase (old +. self))
            (self_times (Hashtbl.find_all by_query p.Hf_obs.Profile.query)))
        a.traced)
    (answers log)

(* The traced window: the workload on a fresh cluster whose sites share
   one tracer, folded every [traced_round] operations; the last round's
   spans are written to [span_file]. *)
let traced_window wl ~seconds ~warm_seed ~window_seed ~span_file =
  let tracer = Tracer.create ~clock:now () in
  let c = start wl ~tracer ~warm_seed in
  Tracer.clear tracer;
  let prng = Prng.create window_seed in
  let deadline = now () +. seconds in
  let f = { phase_s = Hashtbl.create 16; rounds = 0; profiled = 0; dropped = 0 } in
  let cpu = ref 0.0 and logs = ref [] in
  let rec round () =
    let cpu0, _ = cpu_s () in
    let take = counted traced_round (fun () -> c.next_op prng) in
    let log =
      drive ~take:(fun () -> if now () < deadline then take () else None)
        ~run:(execute ~keep:true c.sites)
    in
    let cpu1, _ = cpu_s () in
    cpu := !cpu +. (cpu1 -. cpu0);
    logs := log :: !logs;
    fold_profiles f tracer c.sites.(0) log;
    if now () < deadline && not (List.is_empty log) then begin
      Tracer.clear tracer;
      round ()
    end
    else begin
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      Tracer.write_file tracer span_file
    end
  in
  round ();
  stop c;
  let log = List.concat (List.rev !logs) in
  let check = oracle c in
  let attempts = List.filter_map check (c.warm_log @ log) in
  (f, M.ratio !cpu (float_of_int (List.length (queries log))), attempts)

let traced (wl : W.t) ~seed ~seconds ~warm_seed ~window_seed =
  (* untraced window first: counters, CPU, GC and latencies without the
     tracer's cost *)
  let c = start wl ~tracer:Tracer.noop ~warm_seed in
  let w = measure c ~seconds ~window_seed in
  let n_queries = float_of_int (List.length (queries w.log)) in
  let msgs_per_query = M.ratio (delta w "hf.net.messages_sent") n_queries in
  let sample =
    List.filteri
      (fun i _ -> i < 40)
      (List.filter_map
         (fun r ->
           match r.op with
           | W.Query { program; roots; _ } -> Some { Layers.program; roots }
           | W.Write _ -> None)
         w.log)
  in
  let peak_heap_mb = mib (Gc.quick_stat ()).Gc.top_heap_words in
  let outside = Layers.measure ~sites:c.sites ~queries:sample ~msgs_per_query in
  stop c;
  let check = oracle c in
  let untraced_attempts = List.filter_map check (c.warm_log @ w.log) in
  let span_file = Printf.sprintf "%s/%s-seed%d.trace.json" out_dir wl.W.name seed in
  let f, traced_cpu_per_query, traced_attempts =
    traced_window wl ~seconds ~warm_seed ~window_seed ~span_file
  in
  let per_profile x = x /. float_of_int (max 1 f.profiled) in
  let queue_waits = M.sorted (List.map (fun (_, a) -> ms a.queue_wait_s) (answers w.log)) in
  let layer name unit_ value = { name; value; unit_ } in
  let latencies = M.sorted (List.map (fun r -> r.latency) (queries w.log)) in
  let metrics =
    [
      layer "latency_p99_ms" "ms"
        (match M.tail latencies with Some (v, _) -> ms v | None -> Float.nan);
      layer "cpu_ms_per_query" "ms" (ms (M.ratio w.cpu_s n_queries));
      layer "tcp_site.await_gap_ms" "ms"
        (median_ms (List.map (fun (r, a) -> r.latency -. a.response_time) (answers w.log)));
      layer "tcp_site.msgs_per_query" "count" msgs_per_query;
      layer "tcp_site.bytes_per_msg" "bytes"
        (M.ratio (delta w "hf.net.bytes_sent") (delta w "hf.net.messages_sent"));
      layer "tcp_site.sys_cpu_share" "share" (w.sys_s /. w.wall_s);
      layer "tcp_site.cpu_busy_share" "share" (w.cpu_s /. w.wall_s);
      layer "sched.queue_wait_ms_p99" "ms"
        (match M.tail queue_waits with Some (v, _) -> v | None -> M.median queue_waits);
    ]
    @ List.map
        (fun (label, phase) ->
          layer ("profile." ^ label ^ "_ms") "ms"
            (ms (per_profile (Option.value (Hashtbl.find_opt f.phase_s phase) ~default:0.0))))
        profiled_phases
    @ [ layer "profile.ship_rounds" "count" (per_profile (float_of_int f.rounds)) ]
    @ List.map (fun (name, unit_, value) -> layer name unit_ value) outside
    @ [
        layer "plan.scatter_share" "share"
          (M.ratio (delta w "hf.net.planner_scatter")
             (delta w "hf.net.planner_scatter" +. delta w "hf.net.planner_ship"));
        layer "cache.hit_ratio" "share"
          (M.ratio (delta w "hf.net.cache_hits")
             (delta w "hf.net.cache_hits" +. delta w "hf.net.cache_misses"));
        layer "cache.prunes_per_query" "count" (M.ratio (delta w "hf.net.cache_prunes") n_queries);
        layer "cache.validations_per_query" "count"
          (M.ratio (delta w "hf.net.cache_validations") n_queries);
        layer "cache.invalidations_per_write" "count"
          (M.ratio (delta w "hf.net.cache_invalidations") (float_of_int (writes w.log)));
        layer "bloofi.pruned_sites_per_probe" "count"
          (M.ratio (delta w "hf.index.bloofi_pruned_sites") (delta w "hf.index.bloofi_probes"));
        layer "gc.minor_words_per_query" "words" (M.ratio w.minor_words n_queries);
        layer "gc.peak_heap_mb" "MiB" peak_heap_mb;
        layer "gc.live_bytes_per_query" "bytes" (live_bytes_per_query w);
        layer "gc.major_collections_per_kquery" "count"
          (1000.0 *. M.ratio (float_of_int w.major_collections) n_queries);
        layer "obs.trace_overhead_ratio" "ratio"
          (M.ratio traced_cpu_per_query (M.ratio w.cpu_s n_queries));
      ]
  in
  let attempts = untraced_attempts @ traced_attempts in
  let failed = M.failed attempts in
  Printf.printf "workload %s, seed %d, traced run: %s; loopback TCP only\n" wl.W.name seed
    wl.W.sizes;
  Printf.printf "untraced window %.2f s, %.0f queries; traced window %d queries profiled%s\n"
    w.wall_s n_queries f.profiled
    (if f.dropped > 0 then Printf.sprintf " (%d spans dropped)" f.dropped else "");
  Printf.printf "span file (last %d operations): %s\n" traced_round span_file;
  print_metrics metrics;
  json_line ~correct:(failed = 0) ~attempted:(List.length attempts) ~failed metrics;
  failed = 0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " W.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tcpbench --workload NAME --seed N --seconds S --trace 0|1";
  let wl = W.make !workload in
  let master = Prng.create !seed in
  let warm_seed = Prng.next_int master 1_000_000_000 in
  let window_seed = Prng.next_int master 1_000_000_000 in
  let ok =
    match !trace with
    | 0 -> end_to_end wl ~seed:!seed ~seconds:!seconds ~warm_seed ~window_seed
    | 1 -> traced wl ~seed:!seed ~seconds:!seconds ~warm_seed ~window_seed
    | n -> invalid_arg (Printf.sprintf "--trace %d: expected 0 or 1" n)
  in
  exit (if ok then 0 else 1)
