(* One dense array per level.  Level r has a slot for each label of length
   r (r distinct ids out of n), in label order: digit i of a label is its
   i-th id's rank among the ids not used before it, so level r has
   n (n-1) ... (n-r+1) slots and the children of slot p sit at
   p (n-r) ... p (n-r) + (n-r-1), in increasing id order.  A slot holds the
   entry's encoding [Pair (label_key label, v)] ready-built, or [Unit] when
   absent: encoding a tree conses existing pairs, and a relayed level is
   sent as the very pairs the tree holds.

   Trees are persistent.  An update writes one private copy of the level it
   fills and shares every other level; a level array, once in a returned
   tree, is never written again, so states recorded earlier stay intact. *)

type t = { n : int; levels : Value.t array array }

let rec level_size ~n r = if r = 0 then 1 else (n - r + 1) * level_size ~n (r - 1)

(* Labels are read off their keys in place: [ids] is a key's element list.
   How many of the first [i] of [ids] are below [x]; -1 when [x] is among
   them or one of them is not an int. *)
let rec below x ids i =
  if i = 0 then 0
  else
    match ids with
    | Value.Int y :: rest ->
      let b = below x rest (i - 1) in
      if y = x || b < 0 then -1 else if y < x then b + 1 else b
    | _ -> -1

(* Rank within level [r] of the label [ids] lists; -1 unless it is a
   level-[r] label of distinct in-range ids. *)
let rank ~n ~r ids =
  let rec go p i = function
    | [] -> if i = r then p else -1
    | Value.Int x :: rest when i < r && x >= 0 && x < n ->
      let b = below x ids i in
      if b < 0 then -1 else go ((p * (n - i)) + x - b) (i + 1) rest
    | _ -> -1
  in
  go 0 0 ids

let label_key label = Value.int_list label

let checked_rank ~what ~n label =
  let p = rank ~n ~r:(List.length label) (Value.get_list (label_key label)) in
  if p < 0 then invalid_arg (what ^ ": label with an out-of-range or repeated id");
  p

let empty ~n = { n; levels = [||] }
let get t r p = if r < Array.length t.levels then t.levels.(r).(p) else Value.Unit

(* [levels] extended with empty levels up to depth [r]. *)
let deepen ~n levels r =
  let depth = Array.length levels in
  if r < depth then levels
  else
    Array.init (r + 1) (fun i ->
        if i < depth then levels.(i) else Array.make (level_size ~n i) Value.Unit)

(* A private copy of level [r], to fill and then publish with [with_level]. *)
let fresh_level t r =
  if r < Array.length t.levels then Array.copy t.levels.(r)
  else Array.make (level_size ~n:t.n r) Value.Unit

let with_level t r slots =
  let levels = Array.copy (deepen ~n:t.n t.levels r) in
  levels.(r) <- slots;
  { t with levels }

let find t label =
  match get t (List.length label) (checked_rank ~what:"Eig_tree.find" ~n:t.n label) with
  | Value.Pair (_, v) -> Some v
  | _ -> None

(* First write wins; later claims for the same label are ignored — the
   relay discipline depends on this. *)
let add t label v =
  let r = List.length label in
  let p = checked_rank ~what:"Eig_tree.add" ~n:t.n label in
  if get t r p != Value.Unit then t
  else begin
    let slots = fresh_level t r in
    slots.(p) <- Value.pair (label_key label) v;
    with_level t r slots
  end

(* First occurrence wins, as assoc lookup on the encoding would.  The
   levels stay private until the tree is returned, so they are filled in
   place. *)
let of_value ~n v =
  let put levels entry =
    let label = Value.get_int_list (fst (Value.get_pair entry)) in
    let r = List.length label in
    let p = checked_rank ~what:"Eig_tree.of_value" ~n label in
    let levels = deepen ~n levels r in
    if levels.(r).(p) == Value.Unit then levels.(r).(p) <- entry;
    levels
  in
  { n; levels = List.fold_left put [||] (Value.get_list v) }

(* Pre-order — a label before its extensions, siblings in increasing id
   order, which is the sorted-assoc order — walked back to front so the
   list is built by consing. *)
let rec walk t r p acc =
  let acc =
    if r + 1 = Array.length t.levels then acc else children t r p (t.n - r - 1) acc
  in
  match t.levels.(r).(p) with Value.Unit -> acc | entry -> entry :: acc

and children t r p d acc =
  if d < 0 then acc
  else children t r p (d - 1) (walk t (r + 1) ((p * (t.n - r)) + d) acc)

let to_value t =
  Value.list (if Array.length t.levels = 0 then [] else walk t 0 0 [])

let level t r =
  if r >= Array.length t.levels then []
  else
    Array.fold_right
      (fun entry acc ->
        match entry with
        | Value.Pair (key, v) -> (Value.get_int_list key, v) :: acc
        | _ -> acc)
      t.levels.(r) []

(* Boyer–Moore: only a strict-majority value can survive as the candidate,
   and one counting pass confirms it. *)
let majority ~default votes =
  let vote (c, lead) v =
    if lead = 0 then v, 1 else if Value.equal c v then c, lead + 1 else c, lead - 1
  in
  let candidate, _ = List.fold_left vote (default, 0) votes in
  let count = List.fold_left (fun k v -> if Value.equal candidate v then k + 1 else k) 0 votes in
  if 2 * count > List.length votes then candidate else default

let resolve ~f ~default t root =
  let rec go r p =
    if r > f then match get t r p with Value.Pair (_, v) -> v | _ -> default
    else votes r p (t.n - r - 1) []
  (* [acc] holds the resolved children after [d] of slot [p]. *)
  and votes r p d acc =
    if d < 0 then majority ~default acc
    else votes r p (d - 1) (go (r + 1) ((p * (t.n - r)) + d) :: acc)
  in
  go (List.length root) (checked_rank ~what:"Eig_tree.resolve" ~n:t.n root)

(* --- the relay device ------------------------------------------------------- *)

(* Whether [sigma . j] ([ids] lists [sigma]) has [root] as a prefix. *)
let rec under root ids j =
  match root, ids with
  | [], _ -> true
  | g :: root, Value.Int x :: ids -> g = x && under root ids j
  | [ g ], [] -> g = j
  | _ -> false

(* Step [s] (1 <= s <= f+1): a claim (sigma, v) from sender j on a
   well-formed level-(s-1) label without j becomes val(sigma . j) = v, then
   my own level-(s-1) entries are relayed to myself as sigma . me.  All of
   it lands in one fresh copy of level s; first write wins. *)
let relay_round t ~me ~step:s ~root ~senders inbox =
  let n = t.n and r = s - 1 in
  let slots = fresh_level t s in
  (* [last] is [Int j], shared by every key this round that ends in j. *)
  let put c ids last v =
    if slots.(c) == Value.Unit then
      slots.(c) <- Value.Pair (Value.List (ids @ last), v)
  in
  Array.iteri
    (fun port m ->
      match m with
      | Some (Value.List claims) ->
        let j = senders.(port) in
        let last = [ Value.Int j ] in
        List.iter
          (function
            | Value.Pair (Value.List ids, v) ->
              let p = rank ~n ~r ids and b = below j ids r in
              if p >= 0 && b >= 0 && under root ids j then
                put ((p * (n - r)) + j - b) ids last v
            | _ -> ())
          claims
      | _ -> ())
    inbox;
  let last = [ Value.Int me ] in
  Array.iteri
    (fun p entry ->
      match entry with
      | Value.Pair (Value.List ids, v) ->
        let b = below me ids r in
        if b >= 0 then put ((p * (n - r)) + me - b) ids last v
      | _ -> ())
    (if r < Array.length t.levels then t.levels.(r) else [||]);
  with_level t s slots

let relay_device ~name ~n ~f ~me ~default ~init ~root =
  let senders = Array.of_list (List.filter (( <> ) me) (List.init n Fun.id)) in
  let arity = n - 1 in
  (* Two-slot parse cache keyed on physical equality: the state a device
     receives is physically the one it packed (the executor stores it
     as-is; the arena interns it and hands back the first equal value), and
     [Adversary.split_brain] steps one device over two alternating
     sub-states.  A miss (a third sub-state, a foreign state) re-parses, so
     the cache changes no observable behaviour. *)
  let recent = ref None and older = ref None in
  let tree_of state tree_v =
    match !recent, !older with
    | Some (s, tree), _ when s == state -> tree
    | _, Some (s, tree) when s == state -> tree
    | _ -> of_value ~n tree_v
  in
  let pack step decided tree tree_v =
    let state = Value.triple (Value.int step) decided tree_v in
    older := !recent;
    recent := Some (state, tree);
    state
  in
  {
    Device.name;
    arity;
    init =
      (fun ~input ->
        let decided, seed = init input in
        let tree = Option.fold seed ~none:(empty ~n) ~some:(add (empty ~n) []) in
        pack 0
          (Option.fold decided ~none:Value.unit ~some:(Value.tag "d"))
          tree (to_value tree));
    step =
      (fun ~state ~round:_ ~inbox ->
        let step, decided, tree_v = Value.get_triple state in
        let step = Value.get_int step in
        let tree = tree_of state tree_v in
        let tree' =
          if step = 0 || step > f + 1 then tree
          else relay_round tree ~me ~step ~root ~senders inbox
        in
        let decided =
          if step = f + 1 && not (Value.is_tag "d" decided) then
            Value.tag "d" (resolve ~f ~default tree' root)
          else decided
        in
        (* Broadcast the level-[step] entries whose label avoids me, in
           label order; with nothing at the empty label, step 0 is silent. *)
        let payload =
          if step > f || step >= Array.length tree'.levels then []
          else
            List.filter
              (function Value.Pair (Value.List ids, _) -> below me ids step >= 0 | _ -> false)
              (Array.to_list tree'.levels.(step))
        in
        let sends =
          if step > f || (step = 0 && payload = []) then Array.make arity None
          else Array.make arity (Some (Value.list payload))
        in
        (* Past step f+1 the tree is unchanged: reuse its encoding. *)
        let tree_v = if tree' == tree then tree_v else to_value tree' in
        pack (step + 1) decided tree' tree_v, sends);
    output =
      (fun state ->
        (* Decision queries must not pay for a tree parse: the trace layer
           scans outputs round by round when locating decisions. *)
        let _, decided, _ = Value.get_triple state in
        if Value.is_tag "d" decided then Some (Value.untag "d" decided) else None);
  }
