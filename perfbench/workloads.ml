(* The benchmark's three workloads.  Each one fills a cluster's stores
   with a fixed dataset and draws its operations from a generator seeded
   by the run's seed; the sites see only these generated inputs.  The
   datasets do not vary with the seed, so runs on different seeds differ
   only in the operations they draw.  NOTES.md gives the reasons for
   each choice. *)

module Prng = Hf_util.Prng
module Store = Hf_data.Store
module Tuple = Hf_data.Tuple
module Hobject = Hf_data.Hobject
module Queries = Hf_workload.Queries
module Synthetic = Hf_workload.Synthetic

let n_sites = 3

type op =
  | Query of { label : string; program : Hf_query.Program.t; roots : Hf_data.Oid.t list }
  | Write of { site : int; obj : Hobject.t }
      (** replace the object in [site]'s store; only issued while no
          query is in flight. *)

type t = {
  name : string;
  exec : Hf_net.Tcp_site.exec_mode;
  cache : bool;
  warmup_ops : int;  (** operations run before the measured window. *)
  sizes : string;  (** one line for the run's header. *)
  load : Store.t array -> Prng.t -> op;
      (** fill the per-site stores (index = site); returns the operation
          generator, which draws from the [Prng.t] it is given. *)
}

(* Closure over one pointer class of the paper's synthetic dataset, from
   a uniformly random root, selecting on [select_key] drawn from
   [1..key_space]. *)
let closure ~name ~n_objects ~pointer_key ~select_key ~key_space ~warmup_ops =
  let params = { Synthetic.default_params with n_objects } in
  let dataset = Synthetic.generate ~params () in
  let programs =
    Array.init key_space (fun k ->
        Queries.closure_program ~pointer_key (Queries.select_number ~key:select_key (k + 1)))
  in
  let load stores =
    let placed = Synthetic.materialize dataset ~n_sites ~store_of:(Array.get stores) in
    fun prng ->
      let root = Prng.next_int prng n_objects in
      let k = Prng.next_int prng key_space in
      Query
        {
          label = Printf.sprintf "root %d %s=%d" root select_key (k + 1);
          program = programs.(k);
          roots = [ placed.Synthetic.oids.(root) ];
        }
  in
  {
    name;
    exec = Hf_net.Tcp_site.Exec_ship;
    cache = false;
    warmup_ops;
    sizes =
      Printf.sprintf "%d objects (%d B bodies), %d sites, 1 client, closure over %s, %s selection"
        n_objects params.Synthetic.blob_bytes n_sites pointer_key select_key;
    load;
  }

(* hub_cache_rw: documents spread round-robin over the sites, hubs at
   site 0 pointing at [hub_fanout] random documents each.  A query is
   one hop from a Zipf-chosen hub to the documents carrying a keyword;
   the [rare] keyword lives on site 1 only, so site 2's Bloom summary
   prunes those ships.  Every [write_every]-th operation retags a random
   document instead, on each site in turn; a fixed schedule rather than
   a coin flip keeps the number of cache invalidations per run the same
   on every seed. *)
let n_docs = 1800
let n_hubs = 120
let hub_fanout = 40
let common_keywords = Array.init 6 (Printf.sprintf "kw%d")
let rare = "rare"
let rare_share = 0.1
let write_every = 10
let zipf_exponent = 1.0

let doc_object oid i keyword =
  Hobject.of_tuples oid
    [ Tuple.string_ ~key:"Title" (Printf.sprintf "document %d" i); Tuple.keyword keyword ]

let doc_site i = i mod n_sites

let draw_keyword prng ~site =
  if site = 1 && Prng.next_bool prng rare_share then rare else Prng.pick prng common_keywords

let hub_program keyword =
  Hf_query.Parser.parse_program
    (Printf.sprintf "(Pointer, \"R\", ?X) ^^X (Keyword, \"%s\", ?)" keyword)

let hub_data_seed = 42

let hub () =
  let prng = Prng.create hub_data_seed in
  let initial_keywords = Array.init n_docs (fun i -> draw_keyword prng ~site:(doc_site i)) in
  let links =
    Array.init n_hubs (fun _ ->
        let picked = Array.init n_docs Fun.id in
        Prng.shuffle_in_place prng picked;
        Array.sub picked 0 hub_fanout)
  in
  let keywords = Array.append common_keywords [| rare |] in
  let programs = Array.map (fun k -> (k, hub_program k)) keywords in
  (* cumulative Zipf weights over hub ranks *)
  let cdf =
    let w = Array.init n_hubs (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_exponent)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let zipf prng =
    let u = Prng.next_float prng in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n_hubs - 1)
  in
  (* distinct cacheable verdicts: (keyword, remote document) pairs *)
  let remote_docs = Hashtbl.create n_docs in
  Array.iter
    (Array.iter (fun d -> if doc_site d <> 0 then Hashtbl.replace remote_docs d ()))
    links;
  let verdicts = Array.length keywords * Hashtbl.length remote_docs in
  let load stores =
    let doc_oids =
      Array.init n_docs (fun i ->
          let store = stores.(doc_site i) in
          let oid = Store.fresh_oid store in
          Store.insert store (doc_object oid i initial_keywords.(i));
          oid)
    in
    let hub_oids =
      Array.map
        (fun targets ->
          let store = stores.(0) in
          let oid = Store.fresh_oid store in
          Store.insert store
            (Hobject.of_tuples oid
               (Array.to_list
                  (Array.map (fun d -> Tuple.pointer ~key:"R" doc_oids.(d)) targets)));
          oid)
        links
    in
    let ops = ref 0 in
    fun prng ->
      incr ops;
      if !ops mod write_every = 0 then begin
        let site = !ops / write_every mod n_sites in
        let d = site + (n_sites * Prng.next_int prng (n_docs / n_sites)) in
        Write { site; obj = doc_object doc_oids.(d) d (draw_keyword prng ~site) }
      end
      else begin
        let h = zipf prng in
        let keyword, program = Prng.pick prng programs in
        Query
          { label = Printf.sprintf "hub %d keyword %s" h keyword; program; roots = [ hub_oids.(h) ] }
      end
  in
  {
    name = "hub_cache_rw";
    exec = Hf_net.Tcp_site.Exec_auto;
    cache = true;
    warmup_ops = 100;
    sizes =
      Printf.sprintf
        "%d documents + %d hubs x %d links, %d sites, 1 client, %d%% writes, %d distinct \
         verdicts vs %d-entry LRU"
        n_docs n_hubs hub_fanout n_sites (100 / write_every) verdicts
        Hf_index.Remote_cache.default.Hf_index.Remote_cache.capacity;
    load;
  }

let names = [ "fanout_ship"; "local_closure"; "hub_cache_rw" ]

let make name =
  match name with
  | "fanout_ship" ->
    closure ~name ~n_objects:270 ~pointer_key:"Rand05" ~select_key:"Rand10" ~key_space:10
      ~warmup_ops:60
  | "local_closure" ->
    closure ~name ~n_objects:1080 ~pointer_key:"Rand95" ~select_key:"Rand100" ~key_space:100
      ~warmup_ops:20
  | "hub_cache_rw" -> hub ()
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (one of %s)" other (String.concat ", " names))
