module Heap = Gridb_util.Score_heap
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type mode = [ `Incremental | `Naive ]

type stats = {
  mutable pair_evaluations : int;
  mutable lookahead_terms : int;
  mutable rescored : int;
}

let create_stats () = { pair_evaluations = 0; lookahead_terms = 0; rescored = 0 }

let finished_msg = "Engine: selection on a finished state"

let eval_score (score : Policy.pair_score) state inst i j =
  match score with
  | Policy.Latency -> inst.Instance.lat_flat.((i * inst.Instance.n) + j)
  | Policy.Transmission -> Instance.send_time inst i j
  | Policy.Arrival -> State.score_arrival state i j

(* --- reference oracle: the paper's full A x B scan --------------------- *)

(* One naive selection round.  Iteration in ascending (i, j) order with a
   strict improvement test makes ties deterministic; the incremental path
   below must (and does) reproduce these picks bit for bit. *)
let naive_round stats (shape : Policy.shape) state =
  let inst = State.instance state in
  match shape with
  | Policy.Sized _ -> assert false (* resolved before dispatch *)
  | Policy.Root_first -> (
      stats.pair_evaluations <- stats.pair_evaluations + 1;
      match State.first_b state with
      | Some j -> (inst.Instance.root, j)
      | None -> invalid_arg finished_msg)
  | Policy.Select_min { score; lookahead } ->
      let b = State.count_b state in
      (* F_j does not depend on the sender: cache it per receiver. *)
      let f =
        match lookahead.Lookahead.shape with
        | Lookahead.Zero -> [||]
        | Lookahead.Fold _ | Lookahead.Dynamic ->
            let f = Array.make inst.Instance.n 0. in
            State.iter_b state (fun j -> f.(j) <- lookahead.Lookahead.eval state ~j);
            stats.lookahead_terms <- stats.lookahead_terms + (b * (b - 1));
            f
      in
      let has_f = Array.length f > 0 in
      let best_i = ref (-1) and best_j = ref (-1) and best_s = ref infinity in
      State.iter_a state (fun i ->
          State.iter_b state (fun j ->
              stats.pair_evaluations <- stats.pair_evaluations + 1;
              let s = eval_score score state inst i j in
              let s = if has_f then s +. f.(j) else s in
              if s < !best_s then begin
                best_s := s;
                best_i := i;
                best_j := j
              end));
      if !best_i < 0 then invalid_arg finished_msg;
      (!best_i, !best_j)
  | Policy.Max_reach ->
      (* For each receiver j, its best (earliest-arrival) sender; then take
         the receiver whose best completion including T_j is largest. *)
      let best_i = ref (-1) and best_j = ref (-1) and best_v = ref neg_infinity in
      State.iter_b state (fun j ->
          let sender = ref (-1) and arrival = ref infinity in
          State.iter_a state (fun i ->
              stats.pair_evaluations <- stats.pair_evaluations + 1;
              let a = State.score_arrival state i j in
              if a < !arrival then begin
                arrival := a;
                sender := i
              end);
          if !sender >= 0 then begin
            let value = !arrival +. inst.Instance.intra.(j) in
            if value > !best_v then begin
              best_v := value;
              best_i := !sender;
              best_j := j
            end
          end);
      if !best_i < 0 then invalid_arg finished_msg;
      (!best_i, !best_j)

let naive_select policy state =
  let inst = State.instance state in
  let resolved = Policy.resolve ~n:inst.Instance.n policy in
  naive_round (create_stats ()) (Policy.shape resolved) state

(* --- incremental selector ---------------------------------------------- *)

(* The key invariant of State.send: after [send ~src ~dst], among A only
   [avail src] changed (so only pairs whose sender is [src] are re-scored,
   lazily, when they surface at a heap top) and only [dst] moved from B to
   A (so [dst] gains one candidate entry per remaining receiver, and fold
   lookahead entries naming [dst] die lazily on pop). *)

(* Per-receiver candidate heaps over senders, keyed by (pair score, id) —
   one bank row per receiver, all rows sharing two flat arrays
   ({!Gridb_util.Score_heap.Bank}).  A receiver's row holds at most one
   entry per member of A, and A never exceeds [n - 1] while the receiver is
   still in B, so [cap = n] can never overflow. *)
let init_senders stats state pair ~n ~root =
  let senders = Heap.Bank.create ~rows:n ~cap:(max 1 n) ~order:Heap.Min in
  State.iter_b state (fun j ->
      stats.pair_evaluations <- stats.pair_evaluations + 1;
      Heap.Bank.push senders j (pair root j) root);
  senders

let push_new_sender stats state senders pair dst =
  State.iter_b state (fun j ->
      stats.pair_evaluations <- stats.pair_evaluations + 1;
      Heap.Bank.push senders j (pair dst j) dst)

let incremental_loop ~obs stats (shape : Policy.shape) state =
  let inst = State.instance state in
  let n = inst.Instance.n in
  let root = inst.Instance.root in
  (* One precomputed flag guards every emission site: with the Null sink the
     hot loops pay a single always-false branch and allocate nothing. *)
  let tracing = Sink.enabled obs in
  let round = ref 0 in
  let note_round ~src ~dst =
    if tracing then begin
      Sink.emit obs (Event.Policy_round { round = !round; src; dst });
      incr round
    end
  in
  let note_rescore ~receiver ~sender =
    if tracing then
      Sink.emit obs (Event.Heap_op { op = Event.Rescore; receiver; sender })
  in
  match shape with
  | Policy.Sized _ -> assert false
  | Policy.Root_first ->
      while not (State.finished state) do
        stats.pair_evaluations <- stats.pair_evaluations + 1;
        match State.first_b state with
        | Some j ->
            State.send state ~src:root ~dst:j;
            note_round ~src:root ~dst:j
        | None -> assert false
      done
  | Policy.Select_min { score; lookahead }
    when (not (Policy.score_depends_on_avail score))
         && (match lookahead.Lookahead.shape with
            | Lookahead.Zero -> true
            | Lookahead.Fold _ | Lookahead.Dynamic -> false) ->
      (* Static fast path: the pair score never changes once evaluated and
         no lookahead term enters the total, so each receiver needs only
         its running best (score, sender) — no heap at all.  The update
         rule [s < best || (s = best && id < best_id)] is exactly the
         heap's (score, id) ordering, and evaluation counts match the heap
         path one for one: one per receiver at init, one per (surviving
         receiver, new sender) per round. *)
      let pair i j = eval_score score state inst i j in
      let best_s = Array.make n infinity in
      let best_i = Array.make n (-1) in
      State.iter_b state (fun j ->
          stats.pair_evaluations <- stats.pair_evaluations + 1;
          best_s.(j) <- pair root j;
          best_i.(j) <- root);
      while not (State.finished state) do
        let best_total = ref infinity and bi = ref (-1) and bj = ref (-1) in
        State.iter_b state (fun j ->
            let s = best_s.(j) and i = best_i.(j) in
            if !bj < 0 || s < !best_total || (s = !best_total && i < !bi)
            then begin
              best_total := s;
              bi := i;
              bj := j
            end);
        let dst = !bj in
        State.send state ~src:!bi ~dst;
        note_round ~src:!bi ~dst;
        State.iter_b state (fun j ->
            stats.pair_evaluations <- stats.pair_evaluations + 1;
            let s = pair dst j in
            if s < best_s.(j) || (s = best_s.(j) && dst < best_i.(j))
            then begin
              best_s.(j) <- s;
              best_i.(j) <- dst
            end)
      done
  | Policy.Select_min { score; lookahead } ->
      let depends = Policy.score_depends_on_avail score in
      let pair i j = eval_score score state inst i j in
      let senders = init_senders stats state pair ~n ~root in
      let la_folds =
        match lookahead.Lookahead.shape with
        | Lookahead.Fold { order; term } ->
            (* Terms are static; only B-membership invalidates an entry, and
               B only shrinks, so dead entries are dropped for good when
               they surface at the top. *)
            let bank =
              Heap.Bank.create ~rows:n ~cap:(max 1 (n - 1))
                ~order:(match order with `Min -> Heap.Min | `Max -> Heap.Max)
            in
            State.iter_b state (fun j ->
                State.iter_b state (fun k ->
                    if k <> j then begin
                      stats.lookahead_terms <- stats.lookahead_terms + 1;
                      Heap.Bank.push bank j (term inst j k) k
                    end));
            Some bank
        | Lookahead.Zero | Lookahead.Dynamic -> None
      in
      let is_dynamic =
        match lookahead.Lookahead.shape with
        | Lookahead.Dynamic -> true
        | Lookahead.Zero | Lookahead.Fold _ -> false
      in
      let f_of j =
        match la_folds with
        | Some bank ->
            let rec clean () =
              if Heap.Bank.is_empty bank j then 0.
              else if State.in_a state (Heap.Bank.top_id bank j) then begin
                if tracing then
                  Sink.emit obs
                    (Event.Heap_op
                       {
                         op = Event.Drop;
                         receiver = j;
                         sender = Heap.Bank.top_id bank j;
                       });
                Heap.Bank.drop_top bank j;
                clean ()
              end
              else Heap.Bank.top_score bank j
            in
            clean ()
        | None ->
            if is_dynamic then begin
              stats.lookahead_terms <-
                stats.lookahead_terms + (State.count_b state - 1);
              lookahead.Lookahead.eval state ~j
            end
            else 0.
      in
      (* Re-score stale entries until the top is fresh: a stale entry
         under-estimates its true score (an avail only ever advances), so
         it surfaces early and sinks once re-scored. *)
      let rec fresh_top j =
        let s = Heap.Bank.top_score senders j and i = Heap.Bank.top_id senders j in
        if not depends then (s, i)
        else begin
          stats.pair_evaluations <- stats.pair_evaluations + 1;
          let cur = pair i j in
          if cur = s then (s, i)
          else begin
            Heap.Bank.drop_top senders j;
            Heap.Bank.push senders j cur i;
            stats.rescored <- stats.rescored + 1;
            note_rescore ~receiver:j ~sender:i;
            fresh_top j
          end
        end
      in
      (* Best (pair + f, sender) for receiver j.  Usually the fresh top
         decides outright (the runner-up's total is provably worse and the
         heap is untouched).  But adding f can round two distinct pair
         scores onto one total, and the naive scan breaks such ties towards
         the smallest sender id — so when the runner-up could tie, drain
         the tied prefix (pops ascend in pair score, hence in total;
         re-score stale entries on the way) and push it back. *)
      let stash = ref [] in
      let best_of j f =
        let s, i = fresh_top j in
        let total = s +. f in
        if Heap.Bank.second_score senders j +. f > total then (total, i)
        else begin
          stash := [];
          let t_min = ref infinity and i_min = ref (-1) in
          let continue = ref true in
          while !continue && not (Heap.Bank.is_empty senders j) do
            let s = Heap.Bank.top_score senders j
            and i = Heap.Bank.top_id senders j in
            let fresh =
              (not depends)
              ||
              begin
                stats.pair_evaluations <- stats.pair_evaluations + 1;
                let cur = pair i j in
                cur = s
                ||
                begin
                  Heap.Bank.drop_top senders j;
                  Heap.Bank.push senders j cur i;
                  stats.rescored <- stats.rescored + 1;
                  note_rescore ~receiver:j ~sender:i;
                  false
                end
              end
            in
            if fresh then begin
              let total = s +. f in
              if !i_min < 0 || total = !t_min then begin
                t_min := total;
                if !i_min < 0 || i < !i_min then i_min := i;
                Heap.Bank.drop_top senders j;
                stash := (s, i) :: !stash
              end
              else continue := false
            end
          done;
          List.iter (fun (s, i) -> Heap.Bank.push senders j s i) !stash;
          (!t_min, !i_min)
        end
      in
      while not (State.finished state) do
        let best_total = ref infinity and best_i = ref (-1) and best_j = ref (-1) in
        State.iter_b state (fun j ->
            let f = f_of j in
            let total, i = best_of j f in
            if
              !best_j < 0 || total < !best_total
              || (total = !best_total && i < !best_i)
            then begin
              best_total := total;
              best_i := i;
              best_j := j
            end);
        let dst = !best_j in
        State.send state ~src:!best_i ~dst;
        note_round ~src:!best_i ~dst;
        Heap.Bank.reset senders dst;
        (match la_folds with
        | Some bank -> Heap.Bank.reset bank dst
        | None -> ());
        push_new_sender stats state senders pair dst
      done
  | Policy.Max_reach ->
      let pair i j = State.score_arrival state i j in
      let senders = init_senders stats state pair ~n ~root in
      (* Within a receiver the heap already orders by (arrival, id); the
         receiver's T_j enters only the across-receiver comparison, so no
         tie drain is needed here. *)
      let best_of j =
        let rec clean () =
          let s = Heap.Bank.top_score senders j
          and i = Heap.Bank.top_id senders j in
          stats.pair_evaluations <- stats.pair_evaluations + 1;
          let cur = pair i j in
          if cur = s then (s, i)
          else begin
            Heap.Bank.drop_top senders j;
            Heap.Bank.push senders j cur i;
            stats.rescored <- stats.rescored + 1;
            note_rescore ~receiver:j ~sender:i;
            clean ()
          end
        in
        clean ()
      in
      while not (State.finished state) do
        let best_v = ref neg_infinity and best_i = ref (-1) and best_j = ref (-1) in
        State.iter_b state (fun j ->
            let s, i = best_of j in
            let value = s +. inst.Instance.intra.(j) in
            if !best_j < 0 || value > !best_v then begin
              best_v := value;
              best_i := i;
              best_j := j
            end);
        let dst = !best_j in
        State.send state ~src:!best_i ~dst;
        note_round ~src:!best_i ~dst;
        Heap.Bank.reset senders dst;
        push_new_sender stats state senders pair dst
      done

let run_stats ?(mode = `Incremental) ?(obs = Sink.null) policy inst =
  let stats = create_stats () in
  let shape = Policy.shape (Policy.resolve ~n:inst.Instance.n policy) in
  let state = State.create inst in
  (match mode with
  | `Naive ->
      let tracing = Sink.enabled obs in
      let round = ref 0 in
      while not (State.finished state) do
        let src, dst = naive_round stats shape state in
        State.send state ~src ~dst;
        if tracing then begin
          Sink.emit obs (Event.Policy_round { round = !round; src; dst });
          incr round
        end
      done
  | `Incremental -> incremental_loop ~obs stats shape state);
  (* The counters stay plain mutable fields (zero-cost for every caller,
     instrumented or not) and are additionally published on the bus when a
     sink is listening. *)
  if Sink.enabled obs then begin
    Sink.emit obs
      (Event.Counter { name = "pair_evaluations"; value = stats.pair_evaluations });
    Sink.emit obs
      (Event.Counter { name = "lookahead_terms"; value = stats.lookahead_terms });
    Sink.emit obs (Event.Counter { name = "rescored"; value = stats.rescored })
  end;
  (State.to_schedule state, stats)

let run ?mode ?obs policy inst = fst (run_stats ?mode ?obs policy inst)

let makespan ?model ?mode policy inst =
  Schedule.makespan ?model inst (run ?mode policy inst)
