(* Per-layer costs timed from outside: each layer's public functions are
   called directly, fed the workload's own queries and the oid stream
   those queries touch.  Nothing here adds a span or counter to the
   library. *)

module Tcp = Hf_net.Tcp_site
module Store = Hf_data.Store
module Oid = Hf_data.Oid
module Codec = Hf_proto.Codec
module Message = Hf_proto.Message
module Credit = Hf_termination.Credit

let now = Unix.gettimeofday

(* Repeat [f] for at least 0.15 s; [f] returns the number of operations
   it did.  Returns seconds per operation. *)
let per_op f =
  let t0 = now () in
  let rec go ops =
    let ops = ops + f () in
    let elapsed = now () -. t0 in
    if elapsed < 0.15 then go ops else elapsed /. float_of_int (max 1 ops)
  in
  go 0

type query = { program : Hf_query.Program.t; roots : Oid.t list }

let find_in sites oid = Store.find (Tcp.store sites.(Oid.birth_site oid)) oid

(* The objects a single-store evaluation of [q] looks up, in order. *)
let oid_stream sites q =
  let seen = ref [] in
  let find oid =
    seen := oid :: !seen;
    find_in sites oid
  in
  let r = Hf_engine.Local.run ~find q.program q.roots in
  (Array.of_list (List.rev !seen), r)

let measure ~sites ~(queries : query list) ~msgs_per_query =
  let queries = Array.of_list queries in
  let streams = Array.map (oid_stream sites) queries in
  let runs = Array.map snd streams in
  let streams = Array.map fst streams in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let objects = sum (fun r -> r.Hf_engine.Local.stats.Hf_engine.Stats.objects_processed) runs in
  let tuples = sum (fun r -> r.Hf_engine.Local.stats.Hf_engine.Stats.tuples_examined) runs in
  let n_queries = float_of_int (Array.length queries) in
  let eval_s =
    per_op (fun () ->
        Array.iter
          (fun q -> ignore (Hf_engine.Local.run ~find:(find_in sites) q.program q.roots))
          queries;
        objects)
  in
  let mark_s =
    per_op (fun () ->
        Array.fold_left
          (fun ops stream ->
            let table = Hf_engine.Mark_table.create () in
            Array.fold_left
              (fun ops oid ->
                if Hf_engine.Mark_table.mem table oid 0 ~iters:[||] then ops + 1
                else begin
                  Hf_engine.Mark_table.add table oid 0 ~iters:[||];
                  ops + 2
                end)
              ops stream)
          0 streams)
  in
  let find_s =
    per_op (fun () ->
        Array.fold_left
          (fun ops stream ->
            Array.iter (fun oid -> ignore (find_in sites oid)) stream;
            ops + Array.length stream)
          0 streams)
  in
  (* a scratch copy of the touched objects, so the live stores keep
     their versions *)
  let touched =
    Array.to_list streams |> Array.concat |> Array.to_list |> List.filter_map (find_in sites)
  in
  let scratch = Store.create ~site:0 in
  List.iter (Store.replace scratch) touched;
  let write_s =
    per_op (fun () ->
        List.iter (Store.replace scratch) touched;
        List.length touched)
  in
  (* wire messages as the workload's queries would produce them *)
  let messages =
    Array.to_list
      (Array.mapi
         (fun i q ->
           let query = { Message.originator = 0; serial = i } in
           let plan = Hf_engine.Plan.make q.program in
           let root = List.hd q.roots in
           [ Message.Deref_request
               {
                 query;
                 body = q.program;
                 oid = root;
                 start = 0;
                 iters = Hf_engine.Work_item.iters (Hf_engine.Work_item.initial plan root);
                 credit = [ 1 ];
               };
             Message.Result
               {
                 query;
                 payload = Message.Items runs.(i).Hf_engine.Local.results;
                 bindings = [];
                 credit = [ 2 ];
               };
             Message.Credit_return { query; credit = [ 3; 4 ] };
           ])
         queries)
    |> List.concat
  in
  let n_messages = List.length messages in
  let encoded = List.map Codec.encode messages in
  let encode_s =
    per_op (fun () ->
        List.iter (fun m -> ignore (Hf_proto.Frame.frame (Codec.encode m))) messages;
        n_messages)
  in
  let decode_s =
    per_op (fun () ->
        List.iter (fun s -> ignore (Codec.decode_exn s)) encoded;
        n_messages)
  in
  let deref_bytes =
    List.fold_left
      (fun acc -> function
        | Message.Deref_request _ as m -> acc + Codec.encoded_size m
        | _ -> acc)
      0 messages
  in
  (* one credit split per message sent, breadth first as the shipped
     work fans out, then every share merged back at the origin *)
  let splits = max 1 (int_of_float (Float.round msgs_per_query)) in
  let credit_s =
    per_op (fun () ->
        let shares = Queue.create () in
        Queue.push Credit.one shares;
        for _ = 1 to splits do
          let kept, given = Credit.split (Queue.pop shares) in
          Queue.push kept shares;
          Queue.push given shares
        done;
        let back = Queue.fold Credit.add Credit.zero shares in
        if not (Credit.is_one back) then failwith "credit not conserved";
        splits)
  in
  let explain_s =
    per_op (fun () ->
        Array.iter (fun q -> ignore (Tcp.explain sites.(0) q.program q.roots)) queries;
        Array.length queries)
  in
  let ns s = s *. 1e9 in
  [
    ("engine.eval_ns_per_object", "ns", ns eval_s);
    ("engine.mark_ns_per_op", "ns", ns mark_s);
    ("engine.objects_per_query", "count", float_of_int objects /. n_queries);
    ( "engine.tuples_per_object",
      "count",
      Hf_perfbench.Metrics.ratio (float_of_int tuples) (float_of_int objects) );
    ("codec.encode_ns_per_msg", "ns", ns encode_s);
    ("codec.decode_ns_per_msg", "ns", ns decode_s);
    ("codec.bytes_per_deref", "bytes", float_of_int deref_bytes /. n_queries);
    ("credit.split_merge_ns", "ns", ns credit_s);
    ("plan.explain_us", "us", explain_s *. 1e6);
    ("store.find_ns", "ns", ns find_s);
    ("store.write_us", "us", write_s *. 1e6);
  ]
