let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Metrics.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The 99th percentile sits at rank ceil(0.99 n); below 1,000 samples
   fewer than ten would lie beyond it, so step down to rank n - 10. *)
let tail_index n =
  if n < 11 then None
  else
    let p99 = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
    Some (min p99 (n - 11))

let tail a =
  let n = Array.length a in
  Option.map
    (fun i -> (a.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n))
    (tail_index n)

type attempt = Correct | Wrong_result | Not_complete | Timed_out | Rejected | Raised

let failed attempts = List.length (List.filter (fun a -> a <> Correct) attempts)

let failed_share = function
  | [] -> 0.0
  | attempts -> float_of_int (failed attempts) /. float_of_int (List.length attempts)

let first_last_tenth series =
  let n = Array.length series in
  if n = 0 then None
  else
    let k = max 1 (n / 10) in
    let mean lo = Array.fold_left ( +. ) 0.0 (Array.sub series lo k) /. float_of_int k in
    Some (mean 0, mean (n - k))

let ratio num den = if den = 0.0 then 0.0 else num /. den
