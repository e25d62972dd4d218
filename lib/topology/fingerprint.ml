type t = int64

(* FNV-1a, 64-bit.  Stable across runs, platforms and OCaml versions:
   floats enter the hash via their IEEE-754 bit patterns, so two machine
   views hash equal iff their parameter matrices are bit-equal. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
  done;
  !h

let int h v = int64 h (Int64.of_int v)

(* Gap is a piecewise function of the message size; probing it at spread
   sizes (small, page, chunk, the paper's 1 MB) captures every segment the
   schedules actually evaluate without hashing the raw tables. *)
let probe_sizes = [ 64; 4_096; 65_536; 1_048_576 ]

(* A rank pair's link parameters depend only on its cluster pair, so the
   bit patterns hashed per rank pair — latency, then the gap at each probe
   size — are computed once per cluster pair, from its first rank pair,
   and folded into the stream in rank-pair order. *)
let of_machines machines =
  let n = Machines.count machines in
  let nc = Grid.size (Machines.grid machines) in
  let cluster = Array.init n (fun r -> (Machines.machine machines r).Machines.cluster) in
  let pair_bits = Array.make (nc * nc) [||] in
  let bits_of src dst =
    let pair = (cluster.(src) * nc) + cluster.(dst) in
    if Array.length pair_bits.(pair) = 0 then begin
      let p = Machines.link_params machines src dst in
      pair_bits.(pair) <-
        Array.of_list
          (List.map Int64.bits_of_float
             (Gridb_plogp.Params.latency p
             :: List.map (Gridb_plogp.Params.gap p) probe_sizes))
    end;
    pair_bits.(pair)
  in
  (* Plain loops, no closure over [h]: a captured int64 ref is boxed on
     every update. *)
  let h = ref (int fnv_offset n) in
  for r = 0 to n - 1 do
    h := int !h cluster.(r)
  done;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let bits = bits_of src dst in
        for k = 0 to Array.length bits - 1 do
          h := int64 !h bits.(k)
        done
      end
    done
  done;
  !h

let equal = Int64.equal
let compare = Int64.compare
let to_string t = Printf.sprintf "%016Lx" t
let pp ppf t = Format.pp_print_string ppf (to_string t)
