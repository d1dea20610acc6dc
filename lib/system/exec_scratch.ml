(* Per-domain scratch buffers reused across executions.  The executor's
   per-run setup used to allocate one inbox array per node per run; sweeps
   run thousands of same-shaped systems back to back, so the arrays are
   cached in domain-local storage keyed by the system's arity profile and
   handed out for the duration of one run.

   Safety: devices read the inbox during [step] and never retain the
   array (they may keep a message, as the EIG relay's per-domain parse
   memo does, but messages are immutable values the run's arena holds
   too, and a device's state is its own value, never a row), every slot
   is refilled each round before any device reads it, and the buffers are
   domain-local — two domains never share a row.  [with_inboxes] marks the cache in-use for its
   extent, so a nested or re-entrant execution on the same domain falls
   back to fresh arrays instead of aliasing live ones; rows are cleared on
   release so scratch never keeps a finished trace's messages alive. *)

type cache = {
  mutable arities : int array;
  mutable rows : Value.t option array array;
  mutable in_use : bool;
}

let key : cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { arities = [||]; rows = [||]; in_use = false })

(* Rows are exactly arity-sized: [Device.step_checked] rejects an inbox
   whose length differs from the device's arity. *)
let fresh arities = Array.map (fun a -> Array.make a None) arities

let with_inboxes ~arities f =
  let cache = Domain.DLS.get key in
  if cache.in_use then f (fresh arities)
  else begin
    if cache.arities <> arities then begin
      cache.arities <- Array.copy arities;
      cache.rows <- fresh arities
    end;
    cache.in_use <- true;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun row -> Array.fill row 0 (Array.length row) None)
          cache.rows;
        cache.in_use <- false)
      (fun () -> f cache.rows)
  end
