let pair_scan_evaluations n =
  (* sum over rounds r = 1 .. n-1 of |A| * |B| = r * (n - r) *)
  let total = ref 0 in
  for r = 1 to n - 1 do
    total := !total + (r * (n - r))
  done;
  float_of_int !total

let lookahead_evaluations n =
  (* Each round additionally evaluates F_j for every j in B, each folding
     over the |B| - 1 members of B \ {j}. *)
  let total = ref 0 in
  for r = 1 to n - 1 do
    let b = n - r in
    total := !total + (b * (b - 1))
  done;
  float_of_int !total

let rec evaluations ~n policy =
  match Policy.shape policy with
  | Policy.Sized _ -> evaluations ~n (Policy.resolve ~n policy)
  | Policy.Root_first -> float_of_int n
  | Policy.Max_reach -> pair_scan_evaluations n
  | Policy.Select_min { lookahead; _ } -> (
      match lookahead.Lookahead.shape with
      | Lookahead.Zero -> pair_scan_evaluations n
      | Lookahead.Fold _ | Lookahead.Dynamic ->
          pair_scan_evaluations n +. lookahead_evaluations n)

let default_per_evaluation_us = 0.5

let cost_us ?(per_evaluation_us = default_per_evaluation_us) ~n policy =
  evaluations ~n policy *. per_evaluation_us
