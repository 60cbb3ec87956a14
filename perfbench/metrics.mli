(** Metric arithmetic of the TCP benchmark.  Pure, so the tests can pin
    the rules the reported numbers follow. *)

val sorted : float list -> float array
(** Ascending copy. *)

val median : float array -> float
(** Of an ascending array; the mean of the middle pair when the length
    is even.  Raises [Invalid_argument] on an empty array. *)

val tail_index : int -> int option
(** Index, in an ascending array of [n] samples, of the tail percentile
    the benchmark reports: the 99th, or a lower one when fewer than ten
    samples would lie beyond it — the highest percentile that still has
    at least ten samples above it.  [None] when [n < 11]. *)

val tail : float array -> (float * float) option
(** [(value, percentile)] at {!tail_index} of an ascending array; the
    percentile is the share of samples at or below the reported one,
    times 100. *)

type attempt =
  | Correct  (** [Complete] with the oracle's result set. *)
  | Wrong_result  (** [Complete], but the set differs from the oracle's. *)
  | Not_complete  (** terminated [Partial] or [Cancelled]. *)
  | Timed_out
  | Rejected  (** the admission gate refused the submission. *)
  | Raised  (** submit or await raised. *)

val failed : attempt list -> int
(** Attempts other than [Correct]. *)

val failed_share : attempt list -> float
(** {!failed} over every attempt, refused and raised ones included;
    0 for no attempts. *)

val first_last_tenth : float array -> (float * float) option
(** Means of the first and the last tenth (at least one sample each) of
    a series in completion order — the drift check.  [None] when empty. *)

val ratio : float -> float -> float
(** [ratio num den]; 0 when [den] is 0, so an unused layer reads 0. *)
