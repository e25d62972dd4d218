module Machines = Gridb_topology.Machines
module Tree = Gridb_collectives.Tree
module Schedule = Gridb_sched.Schedule
module Params = Gridb_plogp.Params

type program = {
  machines : Machines.t;
  msg : int;
  parent : int array;
  first_child : int array;
  child : int array;
  gap : float array;
  latency : float array;
  latency_back : float array;
  round_trip : float array;
}

type t = { root : int; children : int list array; compiled : program option Atomic.t }

let make ~root ~children = { root; children; compiled = Atomic.make None }

let validate ~root ~children =
  let n = Array.length children in
  if n = 0 then invalid_arg "Plan.v: empty plan";
  if root < 0 || root >= n then invalid_arg "Plan.v: root out of range";
  let indegree = Array.make n 0 in
  Array.iter
    (fun kids ->
      List.iter
        (fun k ->
          if k < 0 || k >= n then invalid_arg "Plan.v: child rank out of range";
          indegree.(k) <- indegree.(k) + 1)
        kids)
    children;
  if indegree.(root) <> 0 then invalid_arg "Plan.v: root has a parent";
  Array.iteri
    (fun r d -> if r <> root && d <> 1 then invalid_arg "Plan.v: not a spanning tree")
    indegree;
  (* In-degrees are right; check reachability to exclude disjoint cycles. *)
  let seen = Array.make n false in
  let rec visit r =
    if seen.(r) then invalid_arg "Plan.v: cycle";
    seen.(r) <- true;
    List.iter visit children.(r)
  in
  visit root;
  if not (Array.for_all Fun.id seen) then invalid_arg "Plan.v: unreachable ranks"

let v ~root ~children =
  validate ~root ~children;
  make ~root ~children:(Array.copy children)

let of_cluster_schedule ?(shape = Tree.Binomial) machines schedule =
  let grid = Machines.grid machines in
  let n_clusters = Gridb_topology.Grid.size grid in
  if schedule.Schedule.n <> n_clusters then
    invalid_arg "Plan.of_cluster_schedule: cluster count mismatch";
  let n = Machines.count machines in
  let children = Array.make n [] in
  (* Inter-cluster relays, per sender in round order. *)
  let inter = Array.make n_clusters [] in
  List.iter
    (fun e -> inter.(e.Schedule.src) <- e.Schedule.dst :: inter.(e.Schedule.src))
    schedule.Schedule.events;
  for c = 0 to n_clusters - 1 do
    let coordinator = Machines.coordinator machines c in
    let inter_children =
      List.rev_map (fun dst -> Machines.coordinator machines dst) inter.(c)
    in
    let size = (Gridb_topology.Grid.cluster grid c).Gridb_topology.Cluster.size in
    let tree = Tree.build shape size in
    (* Map intra-tree node indices onto this cluster's global ranks. *)
    let rec lay (node : Tree.t) =
      let rank = Machines.rank_of machines ~cluster:c ~index:node.Tree.node in
      let kid_ranks =
        List.map
          (fun (k : Tree.t) -> Machines.rank_of machines ~cluster:c ~index:k.Tree.node)
          node.Tree.children
      in
      children.(rank) <- children.(rank) @ kid_ranks;
      List.iter lay node.Tree.children
    in
    children.(coordinator) <- inter_children;
    lay tree
  done;
  let root = Machines.coordinator machines schedule.Schedule.root in
  validate ~root ~children;
  make ~root ~children

let of_flat_schedule machines schedule =
  let n = Machines.count machines in
  if schedule.Schedule.n <> n then
    invalid_arg "Plan.of_flat_schedule: machine count mismatch";
  let children = Array.make n [] in
  List.iter
    (fun e -> children.(e.Schedule.src) <- children.(e.Schedule.src) @ [ e.Schedule.dst ])
    schedule.Schedule.events;
  let root = schedule.Schedule.root in
  validate ~root ~children;
  make ~root ~children

let of_rank_tree machines ~root tree =
  let n = Machines.count machines in
  let children = Array.make n [] in
  (* Rotate node labels so tree node 0 lands on [root]. *)
  let relabel i = (i + root) mod n in
  let rec lay (node : Tree.t) =
    children.(relabel node.Tree.node) <-
      List.map (fun (k : Tree.t) -> relabel k.Tree.node) node.Tree.children;
    List.iter lay node.Tree.children
  in
  lay tree;
  validate ~root ~children;
  make ~root ~children

let binomial_ranks machines ~root =
  of_rank_tree machines ~root (Tree.binomial (Machines.count machines))

let flat_ranks machines ~root =
  of_rank_tree machines ~root (Tree.flat (Machines.count machines))

let size t = Array.length t.children

let depth t =
  let rec go r = List.fold_left (fun acc k -> max acc (1 + go k)) 0 t.children.(r) in
  go t.root

let parent_array t =
  let parents = Array.make (size t) t.root in
  Array.iteri (fun r kids -> List.iter (fun k -> parents.(k) <- r) kids) t.children;
  parents

(* Every per-edge figure is the arithmetic the sessions used to redo per
   send, in the same association, so replaying the table is bit-identical
   to re-deriving it. *)
let compile t machines ~msg =
  let n = size t in
  if Machines.count machines <> n then invalid_arg "Plan.program: plan size mismatch";
  let parent = Array.make n (-1) in
  let first_child = Array.make (n + 1) 0 in
  let child = Array.make (n - 1) 0 in
  let gap = Array.make n nan in
  let latency = Array.make n nan in
  let latency_back = Array.make n nan in
  let round_trip = Array.make n nan in
  let next = ref 0 in
  for r = 0 to n - 1 do
    first_child.(r) <- !next;
    List.iter
      (fun k ->
        child.(!next) <- k;
        incr next;
        parent.(k) <- r;
        let p = Machines.link_params machines r k in
        let pb = Machines.link_params machines k r in
        gap.(k) <- Params.gap p msg;
        latency.(k) <- Params.latency p;
        latency_back.(k) <- Params.latency pb;
        round_trip.(k) <- gap.(k) +. latency.(k) +. latency_back.(k))
      t.children.(r)
  done;
  first_child.(n) <- !next;
  { machines; msg; parent; first_child; child; gap; latency; latency_back; round_trip }

let program t machines ~msg =
  match Atomic.get t.compiled with
  | Some p when p.machines == machines && p.msg = msg -> p
  | _ ->
      let p = compile t machines ~msg in
      Atomic.set t.compiled (Some p);
      p
