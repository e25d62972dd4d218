module Grid = Gridb_topology.Grid
module Cluster = Gridb_topology.Cluster
module Machines = Gridb_topology.Machines
module Tree = Gridb_collectives.Tree
module Cost = Gridb_collectives.Cost
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Plan = Gridb_des.Plan

let representatives ~site_of_cluster ~n_clusters ~root =
  if n_clusters < 1 then invalid_arg "Multilevel.representatives: empty grid";
  let sites = Array.init n_clusters site_of_cluster in
  let n_sites = Array.fold_left max (-1) sites + 1 in
  Array.iter
    (fun s -> if s < 0 || s >= n_sites then invalid_arg "Multilevel: bad site id")
    sites;
  let reps = Array.make n_sites (-1) in
  for c = n_clusters - 1 downto 0 do
    reps.(sites.(c)) <- c
  done;
  Array.iter (fun r -> if r < 0 then invalid_arg "Multilevel: non-dense site ids") reps;
  reps.(sites.(root)) <- root;
  reps

(* Instance over a subset of clusters; [t_of i] supplies the intra time of
   the i-th subset member. *)
let sub_instance grid ~ids ~root_local ~msg ~t_of =
  let k = Array.length ids in
  let latency =
    Array.init k (fun i ->
        Array.init k (fun j -> if i = j then 0. else Grid.latency grid ids.(i) ids.(j)))
  in
  let gap =
    Array.init k (fun i ->
        Array.init k (fun j -> if i = j then 0. else Grid.gap grid ids.(i) ids.(j) msg))
  in
  Instance.v ~root:root_local ~latency ~gap ~intra:(Array.init k t_of)

let cluster_t ~shape grid msg c =
  let cl = Grid.cluster grid c in
  Cost.broadcast_time ~shape ~params:cl.Cluster.intra ~size:cl.Cluster.size ~msg ()

(* Ordered (src, dst) pairs of a schedule, in global ids. *)
let global_sends ids schedule =
  List.map
    (fun e -> (ids.(e.Schedule.src), ids.(e.Schedule.dst)))
    schedule.Schedule.events

let build_plan ~site_heuristic ~cluster_heuristic ~shape ~site_of_cluster ~root ~msg
    machines =
  let grid = Machines.grid machines in
  let n_clusters = Grid.size grid in
  let reps = representatives ~site_of_cluster ~n_clusters ~root in
  let n_sites = Array.length reps in
  let site_members =
    Array.init n_sites (fun s ->
        List.filter (fun c -> site_of_cluster c = s) (List.init n_clusters (fun i -> i)))
  in
  (* Per-site cluster-level schedules, rooted at the representative. *)
  let site_sends = Array.make n_sites [] in
  let site_completion = Array.make n_sites 0. in
  for s = 0 to n_sites - 1 do
    let ids = Array.of_list site_members.(s) in
    let root_local =
      match Array.find_index (fun c -> c = reps.(s)) ids with
      | Some i -> i
      | None -> invalid_arg "Multilevel: representative outside its site"
    in
    let inst =
      sub_instance grid ~ids ~root_local ~msg ~t_of:(fun i ->
          cluster_t ~shape grid msg ids.(i))
    in
    let schedule = Engine.run cluster_heuristic inst in
    site_sends.(s) <- global_sends ids schedule;
    site_completion.(s) <- Schedule.makespan inst schedule
  done;
  (* Site-level schedule among representatives, site-aware through T. *)
  let site_ids = Array.copy reps in
  let root_site = site_of_cluster root in
  let site_inst =
    sub_instance grid ~ids:site_ids ~root_local:root_site ~msg ~t_of:(fun s ->
        site_completion.(s))
  in
  let site_schedule = Engine.run site_heuristic site_inst in
  let wan_sends = global_sends site_ids site_schedule in
  (* Compose rank-level children lists. *)
  let n_ranks = Machines.count machines in
  let children = Array.make n_ranks [] in
  let append rank kids = children.(rank) <- children.(rank) @ kids in
  let coord c = Machines.coordinator machines c in
  List.iter (fun (src, dst) -> append (coord src) [ coord dst ]) wan_sends;
  Array.iter
    (fun sends -> List.iter (fun (src, dst) -> append (coord src) [ coord dst ]) sends)
    site_sends;
  for c = 0 to n_clusters - 1 do
    let size = (Grid.cluster grid c).Cluster.size in
    let tree = Tree.build shape size in
    let rec lay (node : Tree.t) =
      let rank = Machines.rank_of machines ~cluster:c ~index:node.Tree.node in
      append rank
        (List.map
           (fun (k : Tree.t) -> Machines.rank_of machines ~cluster:c ~index:k.Tree.node)
           node.Tree.children);
      List.iter lay node.Tree.children
    in
    lay tree
  done;
  Plan.v ~root:(coord root) ~children

let plan ?(site_heuristic = Policy.ecef_la) ?(cluster_heuristic = Policy.ecef)
    ?(shape = Tree.Binomial) ~site_of_cluster ~root ~msg machines =
  build_plan ~site_heuristic ~cluster_heuristic ~shape ~site_of_cluster ~root ~msg machines

let flat_sites_plan ?(shape = Tree.Binomial) ~site_of_cluster ~root ~msg machines =
  build_plan ~site_heuristic:Policy.flat_tree ~cluster_heuristic:Policy.flat_tree
    ~shape ~site_of_cluster ~root ~msg machines
