module Params = Gridb_plogp.Params

let arrivals ~params ~msg tree =
  let g = Params.gap params msg and l = Params.latency params in
  let acc = ref [] in
  (* [visit t at]: node [t.node] holds the message at [at]; its i-th child
     (1-based) receives at [at + i*g + L]. *)
  let rec visit t at =
    acc := (t.Tree.node, at) :: !acc;
    List.iteri
      (fun i child -> visit child (at +. (float_of_int (i + 1) *. g) +. l))
      t.Tree.children
  in
  visit tree 0.;
  List.rev !acc

let per_node_arrival ~params ~msg tree = arrivals ~params ~msg tree

let tree_completion ~params ~msg tree =
  List.fold_left (fun acc (_, t) -> Float.max acc t) 0. (arrivals ~params ~msg tree)

let broadcast_time ?(shape = Tree.Binomial) ~params ~size ~msg () =
  if size <= 1 then 0.
  else tree_completion ~params ~msg (Tree.build shape size)

let scatter_time ~params ~size ~msg =
  if size <= 1 then 0.
  else (float_of_int (size - 1) *. Params.gap params msg) +. Params.latency params

let gather_time ~params ~size ~msg = scatter_time ~params ~size ~msg

let allgather_ring_time ~params ~size ~msg =
  if size <= 1 then 0.
  else float_of_int (size - 1) *. (Params.gap params msg +. Params.latency params)

let barrier_time ~params ~size =
  if size <= 1 then 0.
  else begin
    let rounds = int_of_float (Float.ceil (Float.log2 (float_of_int size))) in
    float_of_int rounds *. (Params.gap params 0 +. Params.latency params)
  end
