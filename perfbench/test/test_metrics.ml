(* The benchmark's metric arithmetic: the tail percentile keeps ten
   samples beyond it, and every attempt — timed out, refused or raised
   included — counts in the failure denominator. *)

module M = Hf_perfbench.Metrics

let check name ok = if not ok then failwith ("test_metrics: " ^ name)

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  check "too few samples have no tail" (M.tail_index 10 = None);
  check "11 samples: the lowest, ten beyond" (M.tail_index 11 = Some 0);
  check "100 samples step down to rank 90" (M.tail_index 100 = Some 89);
  check "1000 samples: p99 has exactly ten beyond" (M.tail_index 1000 = Some 989);
  check "2000 samples: p99 proper" (M.tail_index 2000 = Some 1979);
  List.iter
    (fun n ->
      match M.tail_index n with
      | None -> check "tail exists from 11 samples" (n < 11)
      | Some i ->
        check "at least ten beyond" (n - 1 - i >= 10);
        check "never above p99" (float_of_int (i + 1) <= Float.ceil (0.99 *. float_of_int n)))
    (List.init 3000 Fun.id);
  check "tail value and percentile"
    (M.tail (ascending 100) = Some (90.0, 90.0));
  check "median odd" (M.median (ascending 5) = 3.0);
  check "median even" (M.median (ascending 4) = 2.5);
  check "sorted" (M.sorted [ 3.0; 1.0; 2.0 ] = [| 1.0; 2.0; 3.0 |])

let () =
  let attempts = M.[ Correct; Timed_out; Rejected; Raised; Correct; Wrong_result; Not_complete ] in
  check "failures counted" (M.failed attempts = 5);
  check "denominator counts refused, raised and timed-out attempts"
    (M.failed_share attempts = 5.0 /. 7.0);
  check "all correct" (M.failed_share M.[ Correct; Correct ] = 0.0);
  check "one rejection alone fails everything" (M.failed_share M.[ Rejected ] = 1.0);
  check "no attempts" (M.failed_share [] = 0.0)

let () =
  check "drift: first and last tenth"
    (M.first_last_tenth (ascending 20) = Some (1.5, 19.5));
  check "drift: short series uses one sample each"
    (M.first_last_tenth (ascending 3) = Some (1.0, 3.0));
  check "drift: empty" (M.first_last_tenth [||] = None);
  check "ratio of nothing is 0" (M.ratio 5.0 0.0 = 0.0);
  check "ratio" (M.ratio 1.0 4.0 = 0.25)
